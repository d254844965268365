//! `tawa-lint` — run the WSIR static analyzer over kernels at rest.
//!
//! The same two-tier checker the compile session runs as its simulation
//! gate ([`tawa_wsir::analyze()`]: structural validation plus the abstract
//! interpretation of the mbarrier parity protocol), packaged as a CLI so
//! cached kernels, serialized `.wsir` files and the built-in kernel zoo
//! can be audited without a simulator in sight:
//!
//! ```text
//! tawa-lint [options] <path>...   lint .wsir files / cache dirs
//! tawa-lint [options] --zoo       compile the kernel zoo, lint it
//! ```
//!
//! A path may be a `.wsir` file — either a raw [`tawa_wsir::serialize`]
//! document or a cache entry with its `tawa-kernel-cache` header — or a
//! cache directory written by `CompileSession` (`TAWA_DISK_CACHE`), in
//! which case every kernel entry is linted. Lints print one per line in
//! the analyzer's `severity[id]: message (path) at file:line:col` form.
//!
//! `--perf` adds the advisory performance tier: every kernel is judged
//! against the analytic performance model ([`gpu_sim::perf_model`], H100
//! SXM5 calibration), and zoo programs additionally get the tile-IR
//! lints ([`tawa_wsir::analyze_ir`]) over their raw modules.
//! `--json` emits one machine-readable JSON document instead of lines.
//!
//! Exit codes are stable so CI can gate on them: `0` clean, `1` lint
//! errors (or any lint at all under `--deny warnings`), `2` when a lint
//! id listed in `--deny <id,...>` fired (and nothing warranted `1`).
//! Usage and I/O problems explain themselves and also exit nonzero.

use std::path::Path;
use std::process::ExitCode;

use gpu_sim::Device;
use tawa_core::cache::{DiskCache, EntryKind, MAGIC};
use tawa_core::lower::CompileOptions;
use tawa_core::session::CompileSession;
use tawa_frontend::config::{AttentionConfig, GemmConfig};
use tawa_frontend::kernels::{attention, batched_gemm, gemm};
use tawa_ir::types::DType;
use tawa_wsir::doc::{json_block, json_string};
use tawa_wsir::{
    analyze, analyze_ir, analyze_kernel, deserialize_kernel, Kernel, Lint, Severity, ALL_LINT_IDS,
};

const USAGE: &str = "usage:
  tawa-lint [options] <path>...   lint .wsir files and cache directories
  tawa-lint [options] --zoo       compile the built-in kernel zoo and lint it

options:
  --perf            also run the performance lints (analytic model, H100 SXM5)
  --deny warnings   fail (exit 1) on any lint, not just errors
  --deny <id,...>   fail with exit 2 when any of these lint ids fires
  --json            emit one JSON document instead of per-lint lines

Paths may be .wsir kernel serializations (raw, or cache entries carrying
the tawa-kernel-cache header) or compile-cache directories written by
CompileSession (TAWA_DISK_CACHE). Exit code 0 means no lint errors (no
lints at all under --deny warnings, none of the denied ids under
--deny <id,...>).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tawa-lint: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line.
#[derive(Default)]
struct Options {
    deny_warnings: bool,
    deny_ids: Vec<String>,
    perf: bool,
    json: bool,
    zoo: bool,
    paths: Vec<String>,
}

/// One recorded lint finding, kept for the JSON document and the
/// `--deny <id>` verdict.
struct Finding {
    kernel: String,
    id: &'static str,
    severity: Severity,
    message: String,
}

/// Running totals across every linted kernel.
#[derive(Default)]
struct Tally {
    kernels: usize,
    errors: usize,
    warnings: usize,
    findings: Vec<Finding>,
    json: bool,
}

impl Tally {
    /// Records `lints` found under `label`, printing each unless the
    /// output is deferred to the JSON document.
    fn record(&mut self, label: &str, lints: Vec<Lint>) {
        for lint in lints {
            match lint.severity() {
                Severity::Error => self.errors += 1,
                Severity::Warning => self.warnings += 1,
            }
            if !self.json {
                println!("{label}: {lint}");
            }
            self.findings.push(Finding {
                kernel: label.to_string(),
                id: lint.id(),
                severity: lint.severity(),
                message: lint.to_string(),
            });
        }
    }

    /// Lints `kernel` (protocol tier, plus the performance tier when a
    /// device is given), recording each finding under `label`.
    fn lint(&mut self, label: &str, kernel: &Kernel, perf_device: Option<&Device>) {
        self.kernels += 1;
        let mut lints = analyze(kernel);
        if let Some(device) = perf_device {
            lints.extend(analyze_kernel(kernel, &gpu_sim::perf_model(kernel, device)));
        }
        self.record(label, lints);
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => opts.deny_warnings = true,
                Some(ids) => {
                    for id in ids.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        if !ALL_LINT_IDS.contains(&id) {
                            return Err(format!(
                                "--deny: unknown lint id {id:?} (known ids: {})",
                                ALL_LINT_IDS.join(", ")
                            ));
                        }
                        opts.deny_ids.push(id.to_string());
                    }
                }
                None => return Err("--deny needs a level (warnings) or lint ids".into()),
            },
            "--perf" => opts.perf = true,
            "--json" => opts.json = true,
            "--zoo" => opts.zoo = true,
            "-h" | "--help" | "help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            path => opts.paths.push(path.to_string()),
        }
    }
    if !opts.zoo && opts.paths.is_empty() {
        return Err("nothing to lint: pass .wsir files, cache directories or --zoo".into());
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_args(args)?;
    let device = Device::h100_sxm5();
    let perf_device = opts.perf.then_some(&device);

    let mut tally = Tally {
        json: opts.json,
        ..Tally::default()
    };
    if opts.zoo {
        lint_zoo(&mut tally, perf_device)?;
    }
    for path in &opts.paths {
        let p = Path::new(path);
        if p.is_dir() {
            lint_cache_dir(&mut tally, path, perf_device)?;
        } else {
            lint_file(&mut tally, path, perf_device)?;
        }
    }

    if opts.json {
        println!("{}", json_document(&tally));
    } else {
        println!(
            "{} kernel{} linted: {} error{}, {} warning{}",
            tally.kernels,
            if tally.kernels == 1 { "" } else { "s" },
            tally.errors,
            if tally.errors == 1 { "" } else { "s" },
            tally.warnings,
            if tally.warnings == 1 { "" } else { "s" },
        );
    }
    let failing = tally.errors
        + if opts.deny_warnings {
            tally.warnings
        } else {
            0
        };
    if failing > 0 {
        return Ok(ExitCode::FAILURE);
    }
    let denied: Vec<&Finding> = tally
        .findings
        .iter()
        .filter(|f| opts.deny_ids.iter().any(|id| id == f.id))
        .collect();
    if !denied.is_empty() {
        if !opts.json {
            for f in &denied {
                eprintln!("tawa-lint: denied lint {} fired on {}", f.id, f.kernel);
            }
        }
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders the tally as one stable JSON document: totals, a per-id
/// histogram, and every finding with its kernel label and rendered
/// message.
fn json_document(tally: &Tally) -> String {
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in &tally.findings {
        *counts.entry(f.id).or_insert(0) += 1;
    }
    let counts: Vec<String> = counts
        .iter()
        .map(|(id, n)| format!("\"{id}\": {n}"))
        .collect();
    let lints: Vec<String> = tally
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"kernel\": {}, \"id\": \"{}\", \"severity\": \"{}\", \"message\": {}}}",
                json_string(&f.kernel),
                f.id,
                f.severity,
                json_string(&f.message)
            )
        })
        .collect();
    format!(
        "{{\n  \"kernels\": {},\n  \"errors\": {},\n  \"warnings\": {},\n  \"counts\": {},\n  \
         \"lints\": {}\n}}",
        tally.kernels,
        tally.errors,
        tally.warnings,
        json_block('{', &counts, '}'),
        json_block('[', &lints, ']'),
    )
}

/// Lints one `.wsir` file: a raw serialized kernel, or a cache entry
/// whose two header lines ([`MAGIC`] + key echo) are stripped first.
fn lint_file(tally: &mut Tally, path: &str, perf_device: Option<&Device>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let body = if text.starts_with(MAGIC) {
        let mut lines = text.splitn(3, '\n');
        let _magic = lines.next();
        let _key = lines.next();
        lines.next().unwrap_or("")
    } else {
        text.as_str()
    };
    let kernel = deserialize_kernel(body).map_err(|e| format!("{path}: {e}"))?;
    tally.lint(path, &kernel, perf_device);
    Ok(())
}

/// Lints every kernel entry of a compile-cache directory. Entries that
/// cannot be read back (corrupt, stale format) are reported but left
/// alone — deleting defects is `tawa-cache verify`'s job.
fn lint_cache_dir(
    tally: &mut Tally,
    dir: &str,
    perf_device: Option<&Device>,
) -> Result<(), String> {
    let cache = DiskCache::open(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in cache.entries() {
        if entry.kind != EntryKind::Kernel {
            continue;
        }
        let label = entry.path.display().to_string();
        match cache.peek_kernel(&entry) {
            Some(kernel) => tally.lint(&label, &kernel, perf_device),
            None => {
                eprintln!("tawa-lint: {label}: unreadable kernel entry (run tawa-cache verify)")
            }
        }
    }
    Ok(())
}

/// Compiles the built-in kernel zoo (warp-specialized and SIMT baseline
/// paths) and lints every kernel fresh out of the compiler. Under
/// `--perf` the raw tile-IR modules are also run through the tile-IR
/// lints — the compile pipeline's DCE would hide dead compute from the
/// kernel-level view.
fn lint_zoo(tally: &mut Tally, perf_device: Option<&Device>) -> Result<(), String> {
    let session = CompileSession::in_memory(&Device::h100_sxm5());
    let ws = CompileOptions::default();
    // Attention's 128-row accumulator needs the cooperative-consumer
    // split of §IV-A to fit the register file.
    let coop = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let simt = CompileOptions {
        warp_specialize: false,
        ..CompileOptions::default()
    };
    let programs = [
        ("zoo/gemm", gemm(&GemmConfig::new(4096, 4096, 4096)), &ws),
        (
            "zoo/batched-gemm",
            batched_gemm(&GemmConfig::new(2048, 2048, 1024).with_batch(8)),
            &ws,
        ),
        (
            "zoo/attention",
            attention(&AttentionConfig::paper(4096, false, DType::F16)),
            &coop,
        ),
    ];
    for (label, program, ws_opts) in &programs {
        if perf_device.is_some() {
            tally.record(&format!("{label} [ir]"), analyze_ir(program.module()));
        }
        for (variant, opts) in [("ws", *ws_opts), ("simt", &simt)] {
            let kernel = session
                .compile_program(program, opts)
                .map_err(|e| format!("{label} [{variant}]: {e}"))?;
            tally.lint(&format!("{label} [{variant}]"), &kernel, perf_device);
        }
    }
    Ok(())
}
