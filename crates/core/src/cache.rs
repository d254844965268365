//! Persistent on-disk kernel cache.
//!
//! [`DiskCache`] is the second tier behind a
//! [`crate::session::CompileSession`]'s in-memory caches: compiled WSIR
//! kernels, **simulation outcomes** (reports and failure verdicts), and
//! *negative* compile results, i.e. configurations proven
//! [`crate::lower::CompileError::Infeasible`] — survive process restarts,
//! so a fresh session pointed at a warm cache directory serves kernels
//! *and reports* without recompiling or re-simulating, and autotune
//! sweeps skip even the pruning work.
//!
//! ## Cache key derivation
//!
//! Entries are addressed by the same content-addressed [`CacheKey`] the
//! in-memory kernel cache uses:
//!
//! * `module_fp` — FNV-1a of the module's canonical printed IR
//!   ([`tawa_ir::fingerprint::module_fingerprint`]); two modules that
//!   print identically are the same entry, and
//! * `env_fp` — FNV-1a over the `Debug` form of every other compilation
//!   input: [`crate::lower::CompileOptions`] (including the `pipeline`
//!   override), the launch spec and the full device description.
//!
//! Both halves appear in the entry filename
//! (`k-<module_fp>-<env_fp>.wsir` / `.neg` / `.sim`) and are echoed
//! inside the entry header, which the loader verifies against the
//! requested key.
//!
//! ## On-disk format and version policy
//!
//! Every entry starts with the header line
//! `tawa-kernel-cache <DISK_FORMAT_VERSION>` followed by a `key` echo
//! line; kernel entries then carry the kernel in the versioned WSIR
//! serialization format ([`tawa_wsir::serialize`]), negative entries the
//! infeasibility message. The header is compared as an exact prefix; the
//! lines after it — the `cost-model` echo, the verdict lines, the sweep
//! log — are read with the shared document toolkit ([`tawa_wsir::doc`]),
//! which also owns their quoting. [`DISK_FORMAT_VERSION`] is bumped whenever the
//! entry layout, the key derivation or the WSIR format changes
//! incompatibly.
//!
//! **Simulation entries** (`.sim`) record the outcome of simulating the
//! kernel under the same [`CacheKey`]: after the key echo they carry a
//! `cost-model <N>` line echoing [`gpu_sim::COST_MODEL_VERSION`], then
//! either a serialized [`gpu_sim::SimReport`]
//! ([`gpu_sim::report_serde`], `sim-report 1` grammar), a one-line
//! `sim-error "<message>"` failure verdict (deadlock, placement), or a
//! one-line `static-error "<message>"` verdict recorded by the
//! [`tawa_wsir::analyze()`] gate without ever invoking the simulator. The
//! sim tier is therefore keyed by `(CacheKey, COST_MODEL_VERSION)`: a
//! cost-model bump invalidates exactly the stale reports while every
//! cached kernel keeps serving — the IR and lowering did not change.
//!
//! ## Invalidation rules — never error, always recompile
//!
//! A load returns `None` (a miss) and best-effort deletes the entry when
//! anything about it is off: unreadable file, wrong disk or WSIR format
//! version, key echo mismatch (hash collision or renamed file), or a
//! corrupted kernel body. Such entries are counted as `invalidations` in
//! [`DiskCacheStats`]. Concurrent sessions may share one directory:
//! writes are atomic (temp file + rename), so readers only ever observe
//! complete entries, and racing writers of the same key produce identical
//! bytes.
//!
//! ## Eviction
//!
//! With [`DiskCache::with_max_bytes`] the cache evicts
//! least-recently-used entries (by file modification time, refreshed on
//! every hit) after each write until the directory is back under the
//! budget.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use gpu_sim::{deserialize_report, serialize_report, SimReport, COST_MODEL_VERSION};
use tawa_wsir::doc::{complete_lines, quote, Line};
use tawa_wsir::{deserialize_kernel, serialize_kernel, Kernel};

use crate::tier::{KernelSlot, Tier};

/// Version of the on-disk entry layout. Bumped on any incompatible change
/// to the header, the filename scheme, the key derivation or the embedded
/// WSIR serialization; readers treat other versions as a miss.
pub const DISK_FORMAT_VERSION: u32 = 1;

/// Magic leading the header line of every cache entry.
pub const MAGIC: &str = "tawa-kernel-cache";

/// What [`tawa_wsir::DocError`]s call the lines of a `.sim` entry body.
const SIM_BODY: &str = "sim-entry";

/// Content-addressed cache key: module content fingerprint × environment
/// fingerprint (options, launch spec, device). See the module docs for
/// how each half is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a of the module's canonical printed IR.
    pub module_fp: u64,
    /// FNV-1a over options, launch spec and the full device description.
    pub env_fp: u64,
}

/// What one on-disk entry stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A compiled WSIR kernel (`.wsir`).
    Kernel,
    /// A negative infeasibility verdict (`.neg`).
    Infeasible,
    /// A simulation outcome (`.sim`): a serialized report or a recorded
    /// simulation failure, keyed by [`gpu_sim::COST_MODEL_VERSION`].
    SimReport,
}

/// What a `.sim` entry recorded: the simulation either produced a report
/// or failed deterministically (deadlock, unplaceable kernel) — both
/// outcomes are worth remembering so warm sweeps skip the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOutcome {
    /// Simulation succeeded with this report.
    Report(SimReport),
    /// Simulation failed with this message (e.g. a deadlock dump).
    Failed(String),
    /// The static analyzer ([`tawa_wsir::analyze()`]) proved the kernel
    /// deadlocks, so the simulator was never invoked. Distinct from
    /// [`SimOutcome::Failed`] so `tawa-cache ls` can attribute the
    /// verdict to the static gate rather than a simulator run.
    StaticRejection(String),
}

/// One entry as enumerated by [`DiskCache::entries`] — the introspection
/// surface the `tawa-cache` CLI is built on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Content-addressed key recovered from the entry filename.
    pub key: CacheKey,
    /// Positive or negative entry.
    pub kind: EntryKind,
    /// Entry file size in bytes.
    pub bytes: u64,
    /// Last-used time (mtime; refreshed on every hit for LRU eviction).
    pub modified: SystemTime,
    /// The entry file as it actually exists on disk. Kept alongside the
    /// parsed key because the filename may spell the key non-canonically
    /// (unpadded or uppercase hex) — operations must target this path,
    /// not one re-derived from the key.
    pub path: PathBuf,
}

/// Parses an entry filename of the form `k-<module_fp>-<env_fp>.<ext>`.
fn parse_entry_name(name: &str) -> Option<(CacheKey, EntryKind)> {
    let (stem, ext) = name.rsplit_once('.')?;
    let kind = match ext {
        "wsir" => EntryKind::Kernel,
        "neg" => EntryKind::Infeasible,
        "sim" => EntryKind::SimReport,
        _ => return None,
    };
    let rest = stem.strip_prefix("k-")?;
    let (m, e) = rest.split_once('-')?;
    Some((
        CacheKey {
            module_fp: u64::from_str_radix(m, 16).ok()?,
            env_fp: u64::from_str_radix(e, 16).ok()?,
        },
        kind,
    ))
}

/// Serializes a [`SimOutcome`] to its canonical text form: a
/// `sim-report 1` document for reports, or a one-line
/// `sim-error "<msg>"` / `static-error "<msg>"` verdict. This is the
/// body grammar of `.sim` disk entries (after the cost-model echo) and
/// the verbatim payload of the `tawa-cached 1` wire protocol's
/// `get-sim`/`put-sim` messages — one encoding, every tier.
pub fn encode_sim_outcome(outcome: &SimOutcome) -> String {
    match outcome {
        SimOutcome::Report(report) => serialize_report(report),
        SimOutcome::Failed(msg) => format!("sim-error {}\n", quote(msg)),
        SimOutcome::StaticRejection(msg) => format!("static-error {}\n", quote(msg)),
    }
}

/// Parses the canonical [`SimOutcome`] text form (see
/// [`encode_sim_outcome`]). Returns `None` for any structural defect —
/// cache tiers treat that as an invalidating miss, and the daemon
/// rejects such payloads instead of storing them.
pub fn decode_sim_outcome(text: &str) -> Option<SimOutcome> {
    let trimmed = text.trim();
    if trimmed.starts_with("sim-error") || trimmed.starts_with("static-error") {
        let line = Line::parse(SIM_BODY, 1, trimmed).ok()?;
        // Exactly the `sim-error "<msg>"` / `static-error "<msg>"` shape;
        // a merely similar first token (corruption) must invalidate, not
        // serve a false verdict.
        if line.tokens().len() != 2 {
            return None;
        }
        let msg = line.name("message").ok()?;
        match line.keyword() {
            "sim-error" => Some(SimOutcome::Failed(msg)),
            "static-error" => Some(SimOutcome::StaticRejection(msg)),
            _ => None,
        }
    } else {
        deserialize_report(text).ok().map(SimOutcome::Report)
    }
}

/// Parses the body of a `.sim` entry (everything after the key echo):
/// the `cost-model` line keying the sim tier by
/// [`COST_MODEL_VERSION`], then the [`encode_sim_outcome`] grammar.
/// Returns `None` for a stale cost model or any structural defect —
/// callers treat both as an invalidating miss.
fn parse_sim_body(body: &str) -> Option<SimOutcome> {
    let (first, rest) = body.split_once('\n')?;
    let line = Line::parse(SIM_BODY, 1, first).ok()?;
    let &["cost-model", version] = line.tokens() else {
        return None;
    };
    if version.parse() != Ok(COST_MODEL_VERSION) {
        return None;
    }
    decode_sim_outcome(rest)
}

crate::counters! {
    /// Counters of one [`DiskCache`]'s activity, plus a point-in-time scan
    /// of the directory (`entries`, `bytes`).
    pub struct DiskCacheStats / DiskCounters {
        counters {
            /// Positive entries served from disk.
            hits,
            /// Lookups that found no usable entry (includes invalidations).
            misses,
            /// Negative (infeasible) entries served from disk.
            negative_hits,
            /// Simulation reports served from disk (`.sim` entries
            /// recording a successful simulation).
            sim_hits,
            /// Simulation *failure* verdicts served from disk (`.sim`
            /// entries recording a deterministic simulation error).
            sim_negative_hits,
            /// Static-analysis rejection verdicts served from disk (`.sim`
            /// entries recorded by the [`tawa_wsir::analyze()`] gate — the
            /// simulator was never involved in these).
            static_rejections,
            /// Entries written (kernels, negative verdicts and sim
            /// outcomes).
            writes,
            /// Entries discarded as unreadable, version-mismatched or
            /// corrupt.
            invalidations,
            /// Entries removed by size/LRU eviction.
            evictions,
            /// Sweep-log appends that failed ([`DiskCache::record_sweep`]
            /// is best-effort, but silence would make `tawa-cache stats`
            /// quietly under-report what pruning saved — the failures are
            /// counted so the gap is visible).
            sweep_log_errors,
        }
        gauges {
            /// Entry files currently in the directory.
            entries: usize,
            /// Total size of entry files in bytes.
            bytes: u64,
        }
        nested {}
    }
}

/// Accumulated autotune-sweep accounting from a cache directory's sweep
/// log (see [`DiskCache::record_sweep`]): how much work model-guided
/// pruning saved across every session that swept against this directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTotals {
    /// Sweeps recorded.
    pub sweeps: u64,
    /// Candidates the analytic model pruned — each one a simulator run
    /// (or a `.sim` lookup) that never happened.
    pub analytic_pruned: u64,
    /// Simulate calls the sweeps did issue (cache hits included).
    pub simulate_calls: u64,
}

/// Filename of the append-only sweep-accounting log inside a cache
/// directory. Not an entry: `scan_entries` filters by extension, so the
/// log is invisible to lookups, `gc`, `verify` and the byte accounting.
const SWEEP_LOG: &str = "sweeps.log";

/// A persistent kernel cache rooted at one directory. All operations are
/// best-effort and infallible after [`DiskCache::open`]: I/O problems
/// degrade to misses or skipped writes, never to errors — a broken disk
/// cache must not break compilation.
pub struct DiskCache {
    root: PathBuf,
    /// Size budget in bytes; `0` = unlimited.
    max_bytes: u64,
    /// Running over-estimate of the directory's entry bytes, maintained
    /// only when a budget is set: seeded by one scan in
    /// [`DiskCache::with_max_bytes`], bumped on every write, and
    /// *adjusted by the observed delta* (not overwritten) whenever
    /// eviction rescans, so bumps from concurrent writers are never
    /// discarded. Overwrites and races only push it *up*; the worst case
    /// is an early rescan — never a missed eviction. This keeps the
    /// write path O(1) in directory size until the budget is actually
    /// approached.
    bytes_estimate: AtomicU64,
    counters: DiskCounters,
}

/// Process-global sequence for temp-file names. Deliberately **not**
/// per-`DiskCache`: several instances in one process (a figure harness
/// racing sessions, a test suite) may share one directory, and
/// per-instance counters all start at 0 — two writers would collide on
/// `.tmp-<pid>-0`, truncate each other's in-flight document, and publish
/// a corrupt entry under a valid name.
fn next_tmp_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache")
            .field("root", &self.root)
            .field("max_bytes", &self.max_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    /// Propagates the failure to create the directory; an unusable root is
    /// the one condition that is a caller error rather than a silent miss.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        sweep_stale_tmp_files(&root);
        Ok(DiskCache {
            root,
            max_bytes: 0,
            bytes_estimate: AtomicU64::new(0),
            counters: DiskCounters::default(),
        })
    }

    /// Sets a size budget; least-recently-used entries are evicted after
    /// a write pushes the directory over it. `0` means unlimited. Seeds
    /// the byte estimate with one scan of the (possibly pre-existing)
    /// directory so subsequent writes stay O(1).
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> DiskCache {
        self.max_bytes = max_bytes;
        if max_bytes != 0 {
            let total: u64 = self.scan_entries().iter().map(|(_, len, _)| len).sum();
            self.bytes_estimate = AtomicU64::new(total);
        }
        self
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current counters plus a directory scan (entry count, total bytes).
    pub fn stats(&self) -> DiskCacheStats {
        let scan = self.scan_entries();
        DiskCacheStats {
            entries: scan.len(),
            bytes: scan.iter().map(|(_, len, _)| len).sum(),
            ..self.counters.snapshot()
        }
    }

    /// Loads the kernel stored under `key`, if a valid entry exists.
    ///
    /// Any defect — missing file, version mismatch, key-echo mismatch,
    /// corrupted body — is a miss; defective entries are deleted so they
    /// are not re-parsed on every lookup.
    pub fn load(&self, key: &CacheKey) -> Option<Kernel> {
        let kernel = self.load_entry(key, "wsir", |body| deserialize_kernel(body).ok())?;
        self.counters.hits.add(1);
        Some(kernel)
    }

    /// Stores a compiled kernel under `key` (atomic write; best-effort).
    pub fn store(&self, key: &CacheKey, kernel: &Kernel) {
        let mut doc = self.header(key);
        doc.push_str(&serialize_kernel(kernel));
        self.write_entry(self.entry_path(key, "wsir"), &doc);
    }

    /// Loads the negative (infeasible) entry under `key`, returning the
    /// recorded infeasibility message. Misses are not counted here: the
    /// session probes the negative side before every positive lookup, and
    /// only the combined outcome is a cache miss.
    pub fn load_infeasible(&self, key: &CacheKey) -> Option<String> {
        let path = self.entry_path(key, "neg");
        let text = fs::read_to_string(&path).ok()?;
        let body = self.validate_entry(&text, key, &path)?;
        self.counters.negative_hits.add(1);
        touch(&path);
        Some(body.trim_end_matches('\n').to_string())
    }

    /// Records that `key` is infeasible, so warm sweeps skip the pruning
    /// compile entirely (atomic write; best-effort).
    pub fn store_infeasible(&self, key: &CacheKey, message: &str) {
        let mut doc = self.header(key);
        doc.push_str(message);
        doc.push('\n');
        self.write_entry(self.entry_path(key, "neg"), &doc);
    }

    /// Loads the simulation outcome stored under
    /// `(key, COST_MODEL_VERSION)`, if a valid `.sim` entry exists.
    ///
    /// Any defect — missing file, bad header, key-echo mismatch, a
    /// `cost-model` line naming a different [`COST_MODEL_VERSION`], or a
    /// corrupted body — is a miss; defective or stale entries are deleted
    /// so they are not re-parsed on every lookup. A cost-model mismatch
    /// invalidates *only* this `.sim` entry: the kernel entry under the
    /// same key keeps serving, because the compiler did not change.
    pub fn load_sim(&self, key: &CacheKey) -> Option<SimOutcome> {
        let outcome = self.load_entry(key, "sim", parse_sim_body)?;
        match outcome {
            SimOutcome::Report(_) => self.counters.sim_hits.add(1),
            SimOutcome::Failed(_) => self.counters.sim_negative_hits.add(1),
            SimOutcome::StaticRejection(_) => self.counters.static_rejections.add(1),
        }
        Some(outcome)
    }

    /// Stores a [`SimOutcome`] under `(key, COST_MODEL_VERSION)` (atomic
    /// write; best-effort): a report, a deterministic simulator failure
    /// (deadlock, unplaceable kernel) or the static gate's rejection —
    /// whichever it is, warm sweeps skip the simulator.
    pub fn store_sim_outcome(&self, key: &CacheKey, outcome: &SimOutcome) {
        let mut doc = self.sim_header(key);
        doc.push_str(&encode_sim_outcome(outcome));
        self.write_entry(self.entry_path(key, "sim"), &doc);
    }

    /// The lookup kernel and sim entries share: reads the `ext` entry
    /// under `key`, checks header and key echo, parses the body. Any
    /// defect is a counted miss (and deletes the entry); a hit refreshes
    /// the LRU mtime and is counted by the caller, by what was found.
    fn load_entry<T>(
        &self,
        key: &CacheKey,
        ext: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let path = self.entry_path(key, ext);
        let value = fs::read_to_string(&path).ok().and_then(|text| {
            let value = parse(self.validate_entry(&text, key, &path)?);
            if value.is_none() {
                self.invalidate(&path);
            }
            value
        });
        match value {
            Some(_) => touch(&path),
            None => self.counters.misses.add(1),
        }
        value
    }

    /// Removes every entry file. Counters are kept.
    pub fn clear(&self) {
        for (path, _, _) in self.scan_entries() {
            let _ = fs::remove_file(path);
        }
    }

    /// Appends one autotune sweep's accounting to the directory's sweep
    /// log (`sweeps.log`, append-only; best-effort). The log is not a
    /// cache entry — it never affects lookups and [`DiskCache::gc`] /
    /// `verify` ignore it — it exists so `tawa-cache stats` can report
    /// what model-guided pruning saved across every session that used
    /// this directory. Each line is one sweep:
    /// `sweep pruned=<n> sims=<n>`.
    ///
    /// Best-effort like every other write — but *counted* best-effort: a
    /// failed append bumps [`DiskCacheStats::sweep_log_errors`] so
    /// `tawa-cache stats` can report that the sweep accounting is
    /// incomplete instead of silently under-counting.
    pub fn record_sweep(&self, analytic_pruned: u64, simulate_calls: u64) {
        let line = format!("sweep pruned={analytic_pruned} sims={simulate_calls}\n");
        // A single small O_APPEND write lands as one line even with
        // concurrent writers; a torn line is skipped by the parser.
        let appended = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.root.join(SWEEP_LOG))
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if appended.is_err() {
            self.counters.sweep_log_errors.add(1);
        }
    }

    /// Sums the directory's sweep log (see [`DiskCache::record_sweep`]).
    /// Malformed lines are skipped; a missing log reads as all-zero.
    pub fn sweep_totals(&self) -> SweepTotals {
        let mut totals = SweepTotals::default();
        let Ok(text) = fs::read_to_string(self.root.join(SWEEP_LOG)) else {
            return totals;
        };
        // Only newline-terminated lines count: a concurrent writer's
        // in-flight append can be torn at any byte, and a tear landing
        // mid-number (`sims=91` read as `sims=9`) would otherwise parse
        // "successfully" with a wrong count.
        for line in complete_lines(&text).lines() {
            let Ok(line) = Line::parse(SWEEP_LOG, 0, line) else {
                continue;
            };
            if line.keyword() != "sweep" || line.tokens().len() != 3 {
                continue;
            }
            let (Ok(pruned), Ok(sims)) = (line.int::<u64>("pruned"), line.int::<u64>("sims"))
            else {
                continue;
            };
            totals.sweeps += 1;
            totals.analytic_pruned += pruned;
            totals.simulate_calls += sims;
        }
        totals
    }

    /// Reads and deserializes a kernel entry without bumping hit
    /// counters or the LRU mtime — the introspection path `tawa-cache
    /// verify` and `tawa-lint` use to lint cached kernels. Returns
    /// `None` for non-kernel entries and for anything a lookup would
    /// invalidate (but leaves the file alone).
    pub fn peek_kernel(&self, entry: &CacheEntry) -> Option<Kernel> {
        deserialize_kernel(&self.peek_body(entry, EntryKind::Kernel)?).ok()
    }

    /// Classifies a `.sim` entry — report, simulator failure or static
    /// rejection — without bumping hit counters or the LRU mtime (the
    /// label `tawa-cache ls` prints). Returns `None` for non-sim
    /// entries and for anything a lookup would invalidate.
    pub fn peek_sim(&self, entry: &CacheEntry) -> Option<SimOutcome> {
        parse_sim_body(&self.peek_body(entry, EntryKind::SimReport)?)
    }

    /// The body of `entry` if it is of `kind` and carries the right
    /// header; the file is left alone either way.
    fn peek_body(&self, entry: &CacheEntry, kind: EntryKind) -> Option<String> {
        if entry.kind != kind {
            return None;
        }
        let text = fs::read_to_string(&entry.path).ok()?;
        Some(text.strip_prefix(&self.header(&entry.key))?.to_string())
    }

    /// Enumerates the entries currently in the directory, keys recovered
    /// from the filenames, sorted oldest-first (LRU order). Files that do
    /// not parse as entry names are skipped.
    pub fn entries(&self) -> Vec<CacheEntry> {
        let mut out: Vec<CacheEntry> = self
            .scan_entries()
            .into_iter()
            .filter_map(|(path, bytes, modified)| {
                let name = path.file_name()?.to_str()?;
                let (key, kind) = parse_entry_name(name)?;
                Some(CacheEntry {
                    key,
                    kind,
                    bytes,
                    modified,
                    path,
                })
            })
            .collect();
        out.sort_by_key(|e| e.modified);
        out
    }

    /// Re-validates one entry: header magic and version, key echo against
    /// the filename, and a full deserialization of the body — the WSIR
    /// kernel for `.wsir` entries, the cost-model echo plus report or
    /// failure verdict for `.sim` entries. Returns `true` for a sound
    /// entry; defective entries are
    /// deleted (counted as invalidations), exactly as a cache lookup
    /// would, so `verify` doubles as repair. Unlike a lookup it does not
    /// bump hit counters or the LRU mtime.
    pub fn verify_entry(&self, entry: &CacheEntry) -> bool {
        // Operate on the file as listed, not a path re-derived from the
        // key: a non-canonically spelled filename must still be repaired.
        let path = entry.path.clone();
        let Ok(text) = fs::read_to_string(&path) else {
            // Unreadable (non-UTF-8 corruption, permissions): delete like
            // any other defect so repeated `verify` runs converge.
            self.invalidate(&path);
            return false;
        };
        let Some(body) = self.validate_entry(&text, &entry.key, &path) else {
            return false;
        };
        let sound = match entry.kind {
            EntryKind::Infeasible => true,
            EntryKind::Kernel => deserialize_kernel(body).is_ok(),
            // A stale cost-model echo is a defect too: this binary can
            // never serve the entry, so `verify` reclaims it just like a
            // lookup would.
            EntryKind::SimReport => parse_sim_body(body).is_some(),
        };
        if !sound {
            self.invalidate(&path);
        }
        sound
    }

    /// Evicts least-recently-used entries until the directory fits
    /// `max_bytes` (one-shot; independent of the write-path budget set by
    /// [`DiskCache::with_max_bytes`]). Returns the number of entries
    /// removed. `max_bytes = 0` empties the directory.
    pub fn gc(&self, max_bytes: u64) -> u64 {
        let before = self.counters.evictions.get();
        self.evict_to(max_bytes);
        self.counters.evictions.get() - before
    }

    fn entry_path(&self, key: &CacheKey, ext: &str) -> PathBuf {
        self.root.join(format!(
            "k-{:016x}-{:016x}.{ext}",
            key.module_fp, key.env_fp
        ))
    }

    fn header(&self, key: &CacheKey) -> String {
        format!(
            "{MAGIC} {DISK_FORMAT_VERSION}\nkey {:016x} {:016x}\n",
            key.module_fp, key.env_fp
        )
    }

    /// The `.sim` entry header: the common header plus the cost-model
    /// echo that keys the sim tier by [`COST_MODEL_VERSION`].
    fn sim_header(&self, key: &CacheKey) -> String {
        format!("{}cost-model {COST_MODEL_VERSION}\n", self.header(key))
    }

    /// Checks the header and key echo of `text`; returns the body on
    /// success, or deletes the entry and returns `None`.
    fn validate_entry<'a>(&self, text: &'a str, key: &CacheKey, path: &Path) -> Option<&'a str> {
        let expected = self.header(key);
        match text.strip_prefix(&expected) {
            Some(body) => Some(body),
            None => {
                self.invalidate(path);
                None
            }
        }
    }

    fn invalidate(&self, path: &Path) {
        self.counters.invalidations.add(1);
        let _ = fs::remove_file(path);
    }

    /// Atomically publishes `doc` at `path` via a temp file + rename, then
    /// enforces the size budget.
    fn write_entry(&self, path: PathBuf, doc: &str) {
        let tmp = self
            .root
            .join(format!(".tmp-{}-{}", std::process::id(), next_tmp_seq()));
        let ok = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(doc.as_bytes()).and_then(|()| f.sync_all()))
            .and_then(|()| fs::rename(&tmp, &path))
            .is_ok();
        if ok {
            self.counters.writes.add(1);
            if self.max_bytes != 0 {
                let written = doc.len() as u64;
                let estimate = self.bytes_estimate.fetch_add(written, Ordering::Relaxed) + written;
                // Only past the budget, so the directory scan amortizes
                // over many writes.
                if estimate > self.max_bytes {
                    self.evict_to(self.max_bytes);
                }
            }
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Entry files in the directory: (path, size, mtime).
    fn scan_entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(dir) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            let is_entry = path
                .extension()
                .map(|e| e == "wsir" || e == "neg" || e == "sim")
                .unwrap_or(false);
            if !is_entry {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, meta.len(), mtime));
            }
        }
        out
    }

    /// Removes least-recently-used entries until the directory fits
    /// `budget` bytes, then corrects the byte estimate toward the exact
    /// total.
    fn evict_to(&self, budget: u64) {
        let estimate_at_scan = self.bytes_estimate.load(Ordering::Relaxed);
        let mut entries = self.scan_entries();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total > budget {
            entries.sort_by_key(|(_, _, mtime)| *mtime);
            for (path, len, _) in entries {
                if total <= budget {
                    break;
                }
                if fs::remove_file(&path).is_ok() {
                    self.counters.evictions.add(1);
                    total = total.saturating_sub(len);
                }
            }
        }
        // Correct the estimate by the delta we observed rather than
        // storing `total` outright: a plain store would discard the
        // `fetch_add` of any entry written concurrently since our scan,
        // under-counting it forever and leaving the directory over
        // budget with no future eviction trigger.
        if estimate_at_scan >= total {
            let stale = estimate_at_scan - total;
            let _ = self
                .bytes_estimate
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(stale))
                });
        } else {
            self.bytes_estimate
                .fetch_add(total - estimate_at_scan, Ordering::Relaxed);
        }
    }
}

impl Tier for DiskCache {
    fn get_kernel_slot(&self, key: &CacheKey) -> Option<KernelSlot> {
        // The `.neg` probe comes first: within a tier the negative
        // verdict wins over a kernel.
        let infeasible = self.load_infeasible(key).map(KernelSlot::Infeasible);
        infeasible.or_else(|| self.load(key).map(|k| KernelSlot::Kernel(Arc::new(k))))
    }
    fn put_kernel_slot(&self, key: &CacheKey, slot: &KernelSlot) {
        match slot {
            KernelSlot::Kernel(kernel) => self.store(key, kernel),
            KernelSlot::Infeasible(message) => self.store_infeasible(key, message),
        }
    }
    fn get_sim_slot(&self, key: &CacheKey) -> Option<SimOutcome> {
        self.load_sim(key)
    }
    fn put_sim_slot(&self, key: &CacheKey, outcome: &SimOutcome) {
        self.store_sim_outcome(key, outcome);
    }
}

/// Best-effort LRU bump: refresh the entry's modification time.
fn touch(path: &Path) {
    if let Ok(f) = fs::File::options().write(true).open(path) {
        let _ = f.set_modified(SystemTime::now());
    }
}

/// Grace period before an orphaned temp file (left by a crashed writer
/// between create and rename) is considered stale and swept.
const TMP_SWEEP_AGE: Duration = Duration::from_secs(60);

/// Removes stale `.tmp-*` remnants so crashed writers cannot grow a
/// shared cache directory unboundedly (temp files carry no `wsir`/`neg`
/// extension, so neither eviction nor [`DiskCache::clear`] would ever
/// touch them). Recent temp files are spared: another live process may be
/// about to rename one; deleting it under that writer merely fails its
/// (best-effort) publish.
fn sweep_stale_tmp_files(root: &Path) {
    let Ok(dir) = fs::read_dir(root) else {
        return;
    };
    let now = SystemTime::now();
    for entry in dir.flatten() {
        let is_tmp = entry
            .file_name()
            .to_str()
            .map(|n| n.starts_with(".tmp-"))
            .unwrap_or(false);
        if !is_tmp {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .map(|age| age >= TMP_SWEEP_AGE)
            .unwrap_or(true);
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_wsir::{Instr, Role};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tawa-cache-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_kernel(tag: u64) -> Kernel {
        let mut k = Kernel::new(&format!("k{tag}"));
        k.uniform_grid(tag + 1);
        let full = k.add_barrier("full", 1);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(
                tag + 2,
                vec![Instr::TmaLoad {
                    bytes: 1024 * (tag + 1),
                    bar: full,
                }],
            )],
        );
        k
    }

    fn key(m: u64, e: u64) -> CacheKey {
        CacheKey {
            module_fp: m,
            env_fp: e,
        }
    }

    #[test]
    fn sweep_log_accumulates_and_stays_invisible_to_entries() {
        let cache = DiskCache::open(tmp_dir("sweeplog")).unwrap();
        assert_eq!(cache.sweep_totals(), SweepTotals::default());
        cache.record_sweep(2, 4);
        cache.record_sweep(0, 6);
        let totals = cache.sweep_totals();
        assert_eq!(totals.sweeps, 2);
        assert_eq!(totals.analytic_pruned, 2);
        assert_eq!(totals.simulate_calls, 10);
        // The log is accounting, not a cache entry: listings, byte
        // accounting, gc and clear must never see it.
        assert!(cache.entries().is_empty());
        assert_eq!(cache.stats().entries, 0);
        cache.clear();
        assert_eq!(cache.sweep_totals().sweeps, 2, "clear keeps the log");
        // A torn or foreign line is skipped, not an error.
        let _ = fs::OpenOptions::new()
            .append(true)
            .open(cache.root().join(SWEEP_LOG))
            .map(|mut f| std::io::Write::write_all(&mut f, b"garbage\nsweep pruned=1 si"));
        assert_eq!(cache.sweep_totals().sweeps, 2);
    }

    #[test]
    fn sweep_totals_skips_torn_and_partial_lines() {
        // A concurrent writer can leave the log's last line torn at any
        // byte boundary, and interleaved writers can leave partial or
        // malformed fields mid-file. Every such line must be skipped —
        // never an error, never a miscount of the well-formed lines.
        let cache = DiskCache::open(tmp_dir("sweeplog-torn")).unwrap();
        let log = cache.root().join(SWEEP_LOG);

        // A full line torn at every possible prefix length: only the
        // complete line counts.
        let full = "sweep pruned=3 sims=9\n";
        for cut in 0..full.len() {
            fs::write(&log, format!("{full}{}", &full[..cut])).unwrap();
            let totals = cache.sweep_totals();
            assert_eq!(totals.sweeps, 1, "cut at byte {cut}");
            assert_eq!(totals.analytic_pruned, 3, "cut at byte {cut}");
            assert_eq!(totals.simulate_calls, 9, "cut at byte {cut}");
        }

        // Partial/malformed fields anywhere in the file are skipped too:
        // missing value, missing ` sims=` separator, non-numeric and
        // overflowing numbers, trailing junk after the count, blank and
        // foreign lines.
        fs::write(
            &log,
            "sweep pruned=\n\
             sweep pruned=1\n\
             sweep pruned=1 sims=\n\
             sweep pruned=one sims=2\n\
             sweep pruned=1 sims=two\n\
             sweep pruned=99999999999999999999999999 sims=1\n\
             sweep pruned=1 sims=2 extra\n\
             \n\
             not a sweep line\n\
             sweep pruned=5 sims=7\n",
        )
        .unwrap();
        let totals = cache.sweep_totals();
        assert_eq!(totals.sweeps, 1, "only the final well-formed line counts");
        assert_eq!(totals.analytic_pruned, 5);
        assert_eq!(totals.simulate_calls, 7);

        // A log that is nothing but a torn line reads as all-zero.
        fs::write(&log, "sweep pruned=4 si").unwrap();
        assert_eq!(cache.sweep_totals(), SweepTotals::default());
    }

    #[test]
    fn failed_sweep_appends_are_counted_not_silent() {
        let cache = DiskCache::open(tmp_dir("sweeplog-errors")).unwrap();
        assert_eq!(cache.stats().sweep_log_errors, 0);
        cache.record_sweep(1, 2);
        assert_eq!(cache.stats().sweep_log_errors, 0, "healthy append");
        // Make the append fail deterministically: a directory squatting
        // on the log path defeats O_APPEND|O_CREAT.
        let log = cache.root().join(SWEEP_LOG);
        fs::remove_file(&log).unwrap();
        fs::create_dir(&log).unwrap();
        cache.record_sweep(3, 4);
        cache.record_sweep(5, 6);
        let stats = cache.stats();
        assert_eq!(stats.sweep_log_errors, 2, "each failed append counts");
        assert_eq!(cache.sweep_totals(), SweepTotals::default());
        // delta() treats it as the counter it is.
        let later = cache.stats();
        assert_eq!(later.delta(&stats).sweep_log_errors, 0);
        fs::remove_dir(&log).unwrap();
        cache.record_sweep(7, 8);
        assert_eq!(cache.stats().sweep_log_errors, 2, "recovers once writable");
        assert_eq!(cache.sweep_totals().sweeps, 1);
    }

    #[test]
    fn sim_outcome_codec_round_trips_all_variants() {
        let outcomes = [
            SimOutcome::Report(sample_report(3)),
            SimOutcome::Failed("deadlock: [cta0 wg1 BlockedBar(0) since 42]".to_string()),
            SimOutcome::StaticRejection("static deadlock: wg0 waits on bar0 \"full\"".to_string()),
        ];
        for outcome in &outcomes {
            let text = encode_sim_outcome(outcome);
            assert_eq!(
                decode_sim_outcome(&text).as_ref(),
                Some(outcome),
                "{text:?}"
            );
        }
        // The codec is the wire body of the remote tier: garbage and
        // truncation must decode to None, never panic.
        for bad in ["", "sim-error", "sim-error a b", "static-error", "nonsense"] {
            assert_eq!(decode_sim_outcome(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn store_sim_outcome_dispatches_to_all_three_slots() {
        let cache = DiskCache::open(tmp_dir("sim-outcome-store")).unwrap();
        let outcomes = [
            (key(1, 1), SimOutcome::Report(sample_report(2))),
            (key(2, 2), SimOutcome::Failed("deadlock".to_string())),
            (key(3, 3), SimOutcome::StaticRejection("static".to_string())),
        ];
        for (k, outcome) in &outcomes {
            cache.store_sim_outcome(k, outcome);
            assert_eq!(cache.load_sim(k).as_ref(), Some(outcome));
        }
    }

    #[test]
    fn store_sim_outcome_writes_the_documents_older_builds_wrote() {
        // Byte-for-byte what `store_sim_report` / `store_sim_failure` /
        // `store_static_rejection` produced before `store_sim_outcome`
        // replaced them (captured from that commit): cache directories
        // and daemon stores written by older builds keep serving, and
        // entries written now serve older builds.
        let dir = tmp_dir("sim-outcome-pin");
        let cache = DiskCache::open(&dir).unwrap();
        let header = |env_fp: u64| {
            format!(
                "tawa-kernel-cache 1\nkey 00000000000000ab {env_fp:016x}\n\
                 cost-model {COST_MODEL_VERSION}\n"
            )
        };
        let cases = [
            (
                SimOutcome::Report(sample_report(7)),
                "sim-report 1\nreport \"k7\" total_time_us=0x4033800000000000 \
                 kernel_time_us=0x4026800000000000 tflops=0x4082C00000000000 \
                 tc_utilization=0x3FEC000000000000 occupancy=2 waves=10 cycles=8000 \
                 bytes_loaded=1048576 bytes_stored=16384 tc_flops=1073741824\n\
                 wave cycles=900 tc_busy=800 cuda_busy=0 mem_busy=0 bytes_loaded=0 \
                 bytes_stored=0 tc_flops=0 stall_barrier=0 stall_wgmma=0 stall_cpasync=0 \
                 stall_sync=0\n",
            ),
            (
                SimOutcome::Failed("deadlock: [cta0 wg1 BlockedBar(0) since 42]".to_string()),
                "sim-error \"deadlock: [cta0 wg1 BlockedBar(0) since 42]\"\n",
            ),
            (
                SimOutcome::StaticRejection(
                    "static deadlock: wg0 waits on bar0 \"full\"".to_string(),
                ),
                "static-error \"static deadlock: wg0 waits on bar0 \\\"full\\\"\"\n",
            ),
        ];
        for (env_fp, (outcome, body)) in (0xcd_u64..).zip(&cases) {
            cache.store_sim_outcome(&key(0xab, env_fp), outcome);
            let path = dir.join(format!("k-{:016x}-{env_fp:016x}.sim", 0xab));
            let written = fs::read_to_string(path).unwrap();
            assert_eq!(written, format!("{}{body}", header(env_fp)));
        }
    }

    #[test]
    fn stats_delta_subtracts_counters_and_keeps_gauges() {
        let cache = DiskCache::open(tmp_dir("stats-delta")).unwrap();
        let k = sample_kernel(3);
        cache.store(&key(1, 1), &k);
        assert!(cache.load(&key(1, 1)).is_some());
        let baseline = cache.stats();
        assert!(cache.load(&key(1, 1)).is_some());
        assert!(cache.load(&key(1, 2)).is_none());
        let delta = cache.stats().delta(&baseline);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.writes, 0, "no writes since the baseline");
        // Gauges are point-in-time, not subtracted.
        assert_eq!(delta.entries, 1);
        assert!(delta.bytes > 0);
        // A stale (later) baseline saturates to zero instead of wrapping.
        let stale = cache.stats();
        assert_eq!(baseline.delta(&stale).hits, 0);
    }

    #[test]
    fn store_load_round_trip() {
        let cache = DiskCache::open(tmp_dir("roundtrip")).unwrap();
        let k = sample_kernel(7);
        cache.store(&key(1, 2), &k);
        assert_eq!(cache.load(&key(1, 2)), Some(k));
        assert_eq!(cache.load(&key(1, 3)), None, "different env is a miss");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn negative_entries_round_trip() {
        let cache = DiskCache::open(tmp_dir("negative")).unwrap();
        assert_eq!(cache.load_infeasible(&key(5, 5)), None);
        cache.store_infeasible(&key(5, 5), "P=3 exceeds D=1");
        assert_eq!(
            cache.load_infeasible(&key(5, 5)).as_deref(),
            Some("P=3 exceeds D=1")
        );
        assert_eq!(cache.stats().negative_hits, 1);
    }

    fn sample_report(tag: u64) -> SimReport {
        SimReport {
            kernel: format!("k{tag}"),
            total_time_us: 12.5 + tag as f64,
            kernel_time_us: 11.25,
            tflops: 600.0,
            tc_utilization: 0.875,
            occupancy: 2,
            waves: 3 + tag,
            cycles: 1_000 * (tag + 1),
            bytes_loaded: 1 << 20,
            bytes_stored: 1 << 14,
            tc_flops: 1 << 30,
            wave_stats: gpu_sim::EngineStats {
                cycles: 900,
                tc_busy: 800,
                ..Default::default()
            },
        }
    }

    #[test]
    fn sim_outcomes_round_trip() {
        let cache = DiskCache::open(tmp_dir("sim-roundtrip")).unwrap();
        assert_eq!(cache.load_sim(&key(1, 1)), None);
        cache.store_sim_outcome(&key(1, 1), &SimOutcome::Report(sample_report(7)));
        assert_eq!(
            cache.load_sim(&key(1, 1)),
            Some(SimOutcome::Report(sample_report(7)))
        );
        cache.store_sim_outcome(
            &key(2, 2),
            &SimOutcome::Failed("deadlock: [cta0 wg1 BlockedBar(0) since 42]".to_string()),
        );
        assert_eq!(
            cache.load_sim(&key(2, 2)),
            Some(SimOutcome::Failed(
                "deadlock: [cta0 wg1 BlockedBar(0) since 42]".to_string()
            ))
        );
        let stats = cache.stats();
        assert_eq!(stats.sim_hits, 1);
        assert_eq!(stats.sim_negative_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn static_rejections_round_trip_and_peek_without_counting() {
        let cache = DiskCache::open(tmp_dir("static-neg")).unwrap();
        let verdict = "static deadlock: wg0 waits on bar0 \"full\"";
        cache.store_sim_outcome(
            &key(3, 3),
            &SimOutcome::StaticRejection(verdict.to_string()),
        );
        assert_eq!(
            cache.load_sim(&key(3, 3)),
            Some(SimOutcome::StaticRejection(verdict.to_string()))
        );
        let stats = cache.stats();
        assert_eq!(stats.static_rejections, 1, "{stats:?}");
        assert_eq!(stats.sim_negative_hits, 0, "{stats:?}");

        // Peeks classify entries without counting hits or touching LRU.
        let entries = cache.entries();
        assert!(matches!(
            cache.peek_sim(&entries[0]),
            Some(SimOutcome::StaticRejection(_))
        ));
        assert_eq!(cache.stats().static_rejections, 1, "peek must not count");
        cache.store(&key(4, 4), &sample_kernel(1));
        let kernel_entry = cache
            .entries()
            .into_iter()
            .find(|e| e.kind == EntryKind::Kernel)
            .unwrap();
        assert_eq!(cache.peek_kernel(&kernel_entry), Some(sample_kernel(1)));
        assert_eq!(cache.stats().hits, 0, "peek must not count as a hit");
        // And verify accepts the static verdict as a sound sim entry.
        for e in cache.entries() {
            assert!(cache.verify_entry(&e), "{e:?}");
        }
    }

    #[test]
    fn stale_cost_model_invalidates_only_the_sim_entry() {
        let dir = tmp_dir("sim-cost-model");
        let cache = DiskCache::open(&dir).unwrap();
        let k = key(4, 4);
        cache.store(&k, &sample_kernel(1));
        cache.store_sim_outcome(&k, &SimOutcome::Report(sample_report(1)));
        // Rewrite the cost-model echo, simulating an entry written by a
        // build with a different timing model.
        let path = dir.join(format!("k-{:016x}-{:016x}.sim", 4, 4));
        let text = fs::read_to_string(&path).unwrap();
        let stale = text.replacen(
            &format!("cost-model {COST_MODEL_VERSION}"),
            &format!("cost-model {}", COST_MODEL_VERSION + 1),
            1,
        );
        assert_ne!(stale, text, "entry must echo the current cost model");
        fs::write(&path, stale).unwrap();

        assert_eq!(cache.load_sim(&k), None, "stale report must be a miss");
        assert!(!path.exists(), "stale sim entry must be deleted");
        assert_eq!(cache.stats().invalidations, 1);
        // The kernel under the same key is untouched and still serves.
        assert_eq!(cache.load(&k), Some(sample_kernel(1)));
    }

    #[test]
    fn corrupt_sim_entries_are_invalidated_and_verified_away() {
        let dir = tmp_dir("sim-verify");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_sim_outcome(&key(1, 1), &SimOutcome::Report(sample_report(1)));
        cache.store_sim_outcome(&key(2, 2), &SimOutcome::Failed("deadlock".to_string()));
        for e in cache.entries() {
            assert_eq!(e.kind, EntryKind::SimReport);
            assert!(cache.verify_entry(&e), "{e:?}");
        }
        // Corrupt the report body past the valid headers.
        let path = dir.join(format!("k-{:016x}-{:016x}.sim", 1, 1));
        let text = fs::read_to_string(&path).unwrap();
        let header_len = cache.sim_header(&key(1, 1)).len();
        fs::write(&path, format!("{}garbage body", &text[..header_len])).unwrap();
        assert_eq!(cache.load_sim(&key(1, 1)), None);
        assert!(!path.exists(), "corrupt sim entry must be deleted");
        // verify repairs defects the same way lookups do.
        cache.store_sim_outcome(&key(1, 1), &SimOutcome::Report(sample_report(1)));
        let path = dir.join(format!("k-{:016x}-{:016x}.sim", 1, 1));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("{}sim-error unquoted", &text[..header_len])).unwrap();
        let entries = cache.entries();
        let bad = entries.iter().filter(|e| !cache.verify_entry(e)).count();
        assert_eq!(bad, 1);
        assert!(!path.exists());
    }

    #[test]
    fn corrupted_entry_is_invalidated_not_fatal() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let k = key(9, 9);
        cache.store(&k, &sample_kernel(1));
        // Overwrite the entry with garbage.
        let path = dir.join(format!("k-{:016x}-{:016x}.wsir", 9, 9));
        fs::write(&path, "definitely not a cache entry").unwrap();
        assert_eq!(cache.load(&k), None);
        assert_eq!(cache.stats().invalidations, 1);
        assert!(!path.exists(), "corrupt entry must be deleted");
        // The slot is reusable afterwards.
        cache.store(&k, &sample_kernel(2));
        assert_eq!(cache.load(&k), Some(sample_kernel(2)));
    }

    #[test]
    fn a_hostile_loop_nest_is_an_invalidated_miss_not_an_abort() {
        // The cache directory is untrusted input: an entry nesting loops
        // past `MAX_LOOP_DEPTH` used to overflow the reader's stack.
        let dir = tmp_dir("deep-nest");
        let cache = DiskCache::open(&dir).unwrap();
        let k = key(7, 7);
        let mut doc = cache.header(&k);
        doc.push_str(&serialize_kernel(&Kernel::new("nest")));
        doc.push_str("warp_group role=producer regs_per_thread=24 {\n");
        doc.push_str(&"loop 1 {\n".repeat(5_000));
        doc.push_str(&"}\n".repeat(5_001));
        let path = cache.entry_path(&k, "wsir");
        fs::write(&path, doc).unwrap();
        assert_eq!(cache.load(&k), None);
        assert!(!path.exists(), "the hostile entry must be deleted");
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.misses, stats.hits), (1, 1, 0));
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let dir = tmp_dir("version");
        let cache = DiskCache::open(&dir).unwrap();
        let k = key(3, 4);
        cache.store(&k, &sample_kernel(0));
        let path = dir.join(format!("k-{:016x}-{:016x}.wsir", 3, 4));
        let text = fs::read_to_string(&path).unwrap();
        let bumped = text.replacen(
            &format!("{MAGIC} {DISK_FORMAT_VERSION}"),
            &format!("{MAGIC} {}", DISK_FORMAT_VERSION + 1),
            1,
        );
        fs::write(&path, bumped).unwrap();
        assert_eq!(cache.load(&k), None);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn key_echo_mismatch_is_a_miss() {
        let dir = tmp_dir("keyecho");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(&key(1, 1), &sample_kernel(0));
        // Rename the entry so the filename key disagrees with the echo.
        fs::rename(
            dir.join(format!("k-{:016x}-{:016x}.wsir", 1, 1)),
            dir.join(format!("k-{:016x}-{:016x}.wsir", 2, 2)),
        )
        .unwrap();
        assert_eq!(cache.load(&key(2, 2)), None);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = tmp_dir("tmp-sweep");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.store(&key(1, 1), &sample_kernel(1));
        }
        // A remnant from a crashed writer, old enough to be stale…
        let stale = dir.join(".tmp-12345-0");
        fs::write(&stale, "half-written entry").unwrap();
        fs::File::options()
            .write(true)
            .open(&stale)
            .unwrap()
            .set_modified(SystemTime::now() - TMP_SWEEP_AGE * 2)
            .unwrap();
        // …and a fresh one that may belong to a live writer.
        let fresh = dir.join(".tmp-12345-1");
        fs::write(&fresh, "in-flight entry").unwrap();

        let reopened = DiskCache::open(&dir).unwrap();
        assert!(!stale.exists(), "stale tmp remnant must be swept");
        assert!(fresh.exists(), "fresh tmp file must be spared");
        assert_eq!(reopened.load(&key(1, 1)), Some(sample_kernel(1)));
        let _ = fs::remove_file(&fresh);
    }

    #[test]
    fn entries_lists_keys_kinds_and_lru_order() {
        let cache = DiskCache::open(tmp_dir("entries")).unwrap();
        cache.store(&key(1, 2), &sample_kernel(1));
        cache.store_infeasible(&key(3, 4), "too deep");
        let entries = cache.entries();
        assert_eq!(entries.len(), 2);
        let kernel = entries
            .iter()
            .find(|e| e.kind == EntryKind::Kernel)
            .unwrap();
        assert_eq!(kernel.key, key(1, 2));
        assert!(kernel.bytes > 0);
        let neg = entries
            .iter()
            .find(|e| e.kind == EntryKind::Infeasible)
            .unwrap();
        assert_eq!(neg.key, key(3, 4));
        // LRU order: oldest first.
        assert!(entries[0].modified <= entries[1].modified);
    }

    #[test]
    fn entry_name_parsing() {
        let (k, kind) = parse_entry_name("k-00000000000000ff-0000000000000001.wsir").unwrap();
        assert_eq!(k, key(255, 1));
        assert_eq!(kind, EntryKind::Kernel);
        let (_, kind) = parse_entry_name("k-0-0.neg").unwrap();
        assert_eq!(kind, EntryKind::Infeasible);
        assert!(parse_entry_name("k-xx-0.wsir").is_none());
        assert!(parse_entry_name("other.txt").is_none());
        assert!(parse_entry_name(".tmp-1-2").is_none());
    }

    #[test]
    fn verify_entry_accepts_sound_and_removes_corrupt() {
        let dir = tmp_dir("verify");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(&key(1, 1), &sample_kernel(1));
        cache.store(&key(2, 2), &sample_kernel(2));
        for e in cache.entries() {
            assert!(cache.verify_entry(&e), "{e:?}");
        }
        // Corrupt one body past the (valid) header: deserialization fails,
        // the entry is deleted, soundness is restored.
        let path = dir.join(format!("k-{:016x}-{:016x}.wsir", 2, 2));
        let text = fs::read_to_string(&path).unwrap();
        let header_len = cache.header(&key(2, 2)).len();
        fs::write(&path, format!("{}garbage body", &text[..header_len])).unwrap();
        let entries = cache.entries();
        let results: Vec<bool> = entries.iter().map(|e| cache.verify_entry(e)).collect();
        assert_eq!(results.iter().filter(|&&ok| !ok).count(), 1);
        assert_eq!(cache.entries().len(), 1, "defective entry removed");
        assert_eq!(cache.stats().invalidations, 1);

        // Non-UTF-8 corruption (unreadable as text) must also be repaired,
        // so repeated `verify` runs converge instead of failing forever.
        let path = dir.join(format!("k-{:016x}-{:016x}.wsir", 1, 1));
        fs::write(&path, [0xFFu8, 0xFE, 0x00, 0x9f]).unwrap();
        let entries = cache.entries();
        assert!(!cache.verify_entry(&entries[0]));
        assert!(!path.exists(), "unreadable entry must be deleted");
        assert_eq!(cache.entries().len(), 0);

        // A non-canonically *named* entry (unpadded hex) must be operated
        // on at its actual path: valid content verifies, garbage content
        // is deleted — never reported removed while left on disk.
        cache.store(&key(1, 1), &sample_kernel(1));
        let canonical = dir.join(format!("k-{:016x}-{:016x}.wsir", 1, 1));
        let odd = dir.join("k-1-1.wsir");
        fs::rename(&canonical, &odd).unwrap();
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert!(cache.verify_entry(&entries[0]), "same key, valid content");
        fs::write(&odd, "garbage").unwrap();
        let entries = cache.entries();
        assert!(!cache.verify_entry(&entries[0]));
        assert!(!odd.exists(), "defective odd-named entry must be deleted");
    }

    #[test]
    fn gc_evicts_lru_down_to_budget() {
        let dir = tmp_dir("gc");
        let cache = DiskCache::open(&dir).unwrap();
        for i in 0..6u64 {
            cache.store(&key(i, i), &sample_kernel(i));
        }
        let before = cache.stats();
        assert_eq!(before.entries, 6);
        let evicted = cache.gc(before.bytes / 2);
        assert!(evicted > 0);
        let after = cache.stats();
        assert!(after.bytes <= before.bytes / 2, "{after:?}");
        assert_eq!(after.entries + evicted as usize, 6);
        // gc(0) empties the directory.
        assert_eq!(cache.gc(0) as usize, after.entries);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn under_budget_writes_do_not_evict() {
        let cache = DiskCache::open(tmp_dir("under-budget"))
            .unwrap()
            .with_max_bytes(1 << 20);
        for i in 0..4u64 {
            cache.store(&key(i, i), &sample_kernel(i));
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert_eq!(stats.entries, 4, "{stats:?}");
    }

    #[test]
    fn eviction_keeps_directory_under_budget() {
        let dir = tmp_dir("evict");
        // Each entry is a few hundred bytes; budget two-ish entries.
        let cache = DiskCache::open(&dir).unwrap().with_max_bytes(600);
        for i in 0..6u64 {
            cache.store(&key(i, i), &sample_kernel(i));
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.bytes <= 600, "{stats:?}");
        assert!(stats.entries < 6, "{stats:?}");
    }
}
