//! End-to-end tests of the persistent on-disk kernel cache: a fresh
//! session pointed at a warm cache directory serves byte-identical
//! kernels without compiling, infeasibility verdicts are negatively
//! cached so warm autotune sweeps skip even the pruning work, and every
//! failure mode — corruption, format-version bumps, concurrent sessions,
//! eviction — degrades to recompilation, never to an error.

use std::fs;
use std::path::PathBuf;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::{CompileError, CompileOptions};
use tawa::frontend::config::{AttentionConfig, GemmConfig};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::frontend::GroupedGemmConfig;
use tawa::ir::types::DType;
use tawa::sim::Device;
use tawa::wsir::print_kernel;
use tawa::{CompileSession, Program};

fn dev() -> Device {
    Device::h100_sxm5()
}

/// A unique, pre-cleaned cache directory under the system temp dir.
fn cache_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tawa-e2e-disk-cache-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn disk_session(dir: &PathBuf) -> CompileSession {
    CompileSession::in_memory(&dev())
        .with_disk_cache(dir)
        .expect("cache dir must open")
}

/// One feasible compile job per kernel family.
fn family_jobs() -> Vec<(Program, CompileOptions)> {
    let attn = attention(&AttentionConfig {
        block_m: 64,
        ..AttentionConfig::paper(2048, false, DType::F16)
    });
    vec![
        gemm(&GemmConfig::new(1024, 1024, 512)),
        batched_gemm(&GemmConfig::new(1024, 1024, 1024).with_batch(4)),
        grouped_gemm(&GroupedGemmConfig::paper_sweep(4)),
        attn,
    ]
    .into_iter()
    .map(|p| (p, CompileOptions::default()))
    .collect()
}

#[test]
fn fresh_session_over_warm_dir_serves_byte_identical_kernels() {
    let dir = cache_dir("warm-start");
    let jobs = family_jobs();

    // Cold process: compile all four kernel families.
    let cold_session = disk_session(&dir);
    let cold: Vec<String> = jobs
        .iter()
        .map(|(p, o)| print_kernel(&cold_session.compile_program(p, o).unwrap()))
        .collect();
    let cold_stats = cold_session.cache_stats();
    assert_eq!(cold_stats.disk.writes, jobs.len() as u64);
    assert_eq!(cold_stats.kernel_misses, jobs.len() as u64);

    // Simulated restart: a brand-new session over the same directory
    // must serve every kernel from disk, byte-identical to the cold
    // compile, with zero compiles.
    let warm_session = disk_session(&dir);
    for ((p, o), cold_text) in jobs.iter().zip(&cold) {
        let warm = warm_session.compile_program(p, o).unwrap();
        assert_eq!(&print_kernel(&warm), cold_text);
    }
    let warm_stats = warm_session.cache_stats();
    assert_eq!(warm_stats.disk.hits, jobs.len() as u64, "{warm_stats:?}");
    assert_eq!(warm_stats.kernel_misses, 0, "{warm_stats:?}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_autotune_sweep_skips_pruning_via_negative_cache() {
    let dir = cache_dir("negative-sweep");
    let p = gemm(&GemmConfig::new(2048, 2048, 2048));
    let base = CompileOptions::default();
    // The fig11 D × P grid contains the infeasible P > D triangle.
    let space = TuneSpace::fig11(false);

    let cold_session = disk_session(&dir);
    let cold = autotune_with_session(&cold_session, p.module(), p.spec(), &base, &space);
    let infeasible = cold.points.iter().filter(|p| p.tflops.is_none()).count();
    assert!(infeasible > 0, "the grid must contain infeasible points");

    // Fresh session: the sweep replays entirely out of the disk cache —
    // feasible points are persisted-report hits (skipping the compiler
    // AND the simulator), infeasible points negative hits, and nothing
    // is compiled or simulated (pruning included).
    let warm_session = disk_session(&dir);
    let warm = autotune_with_session(&warm_session, p.module(), p.spec(), &base, &space);
    let stats = warm_session.cache_stats();
    assert_eq!(stats.disk.negative_hits, infeasible as u64, "{stats:?}");
    assert!(stats.disk.sim_hits > 0, "{stats:?}");
    assert_eq!(stats.kernel_misses, 0, "{stats:?}");
    assert_eq!(stats.sim_misses, 0, "{stats:?}");
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert_eq!(c.tflops, w.tflops, "warm sweep must reproduce the cold one");
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_degrade_to_recompile() {
    let dir = cache_dir("corruption");
    let jobs = family_jobs();

    let cold_session = disk_session(&dir);
    let cold: Vec<String> = jobs
        .iter()
        .map(|(p, o)| print_kernel(&cold_session.compile_program(p, o).unwrap()))
        .collect();

    // Vandalize every entry a different way: truncation, garbage, and
    // bit-flips in the middle of the document.
    for (i, entry) in fs::read_dir(&dir).unwrap().flatten().enumerate() {
        let path = entry.path();
        let bytes = fs::read(&path).unwrap();
        let vandalized: Vec<u8> = match i % 3 {
            0 => bytes[..bytes.len() / 2].to_vec(),
            1 => b"total garbage, not a cache entry".to_vec(),
            _ => {
                let mut b = bytes;
                let mid = b.len() / 2;
                b[mid] ^= 0xff;
                b
            }
        };
        fs::write(&path, vandalized).unwrap();
    }

    // A fresh session must recompile everything, producing identical
    // kernels, and count the defective entries as invalidations.
    let recovered_session = disk_session(&dir);
    for ((p, o), cold_text) in jobs.iter().zip(&cold) {
        let k = recovered_session.compile_program(p, o).unwrap();
        assert_eq!(&print_kernel(&k), cold_text);
    }
    let stats = recovered_session.cache_stats();
    assert!(stats.disk.invalidations > 0, "{stats:?}");
    assert_eq!(stats.kernel_misses as usize, jobs.len(), "{stats:?}");

    // And the repaired entries serve the next restart from disk again.
    let warm_session = disk_session(&dir);
    for (p, o) in &jobs {
        warm_session.compile_program(p, o).unwrap();
    }
    assert_eq!(warm_session.cache_stats().kernel_misses, 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn format_version_bump_degrades_to_recompile() {
    let dir = cache_dir("version-bump");
    let p = gemm(&GemmConfig::new(1024, 1024, 512));
    let opts = CompileOptions::default();

    let cold_session = disk_session(&dir);
    let cold = print_kernel(&cold_session.compile_program(&p, &opts).unwrap());

    // Simulate entries written by a future (or past) build: bump the
    // disk-format version inside every entry header.
    for entry in fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        let text = fs::read_to_string(&path).unwrap();
        let bumped = text.replacen(
            "tawa-kernel-cache 1",
            &format!("tawa-kernel-cache {}", u32::MAX),
            1,
        );
        assert_ne!(bumped, text, "entry must carry the current version");
        fs::write(&path, bumped).unwrap();
    }

    let fresh_session = disk_session(&dir);
    let k = fresh_session.compile_program(&p, &opts).unwrap();
    assert_eq!(print_kernel(&k), cold);
    let stats = fresh_session.cache_stats();
    assert_eq!(stats.kernel_misses, 1, "{stats:?}");
    assert!(stats.disk.invalidations > 0, "{stats:?}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sessions_share_one_cache_dir() {
    let dir = cache_dir("concurrent");
    let jobs = family_jobs();

    // Reference kernels from a cache-less session.
    let reference: Vec<String> = {
        let session = CompileSession::in_memory(&dev());
        jobs.iter()
            .map(|(p, o)| print_kernel(&session.compile_program(p, o).unwrap()))
            .collect()
    };

    // Several sessions (each its own "process") race over one directory,
    // all compiling the same job set. Racing writers publish identical
    // bytes via atomic renames, so every outcome must match the
    // reference and nothing may error.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let session = disk_session(&dir);
                for ((p, o), expected) in jobs.iter().zip(&reference) {
                    let k = session.compile_program(p, o).unwrap();
                    assert_eq!(&print_kernel(&k), expected);
                }
            });
        }
    });

    // Afterwards the directory holds exactly one entry per job and a
    // fifth session is fully warm.
    let warm_session = disk_session(&dir);
    for (p, o) in &jobs {
        warm_session.compile_program(p, o).unwrap();
    }
    let stats = warm_session.cache_stats();
    assert_eq!(stats.kernel_misses, 0, "{stats:?}");
    assert_eq!(stats.disk.entries, jobs.len(), "{stats:?}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn eviction_bounds_disk_usage_without_breaking_compiles() {
    let dir = cache_dir("eviction");
    let budget = 8 * 1024; // a handful of GEMM kernels at most
    let session = CompileSession::in_memory(&dev())
        .with_disk(tawa::DiskCache::open(&dir).unwrap().with_max_bytes(budget));

    // Compile more distinct configurations than the budget can hold.
    let program = gemm(&GemmConfig::new(2048, 2048, 2048));
    for d in 1..=3usize {
        for p in 1..=d {
            for persistent in [false, true] {
                let opts = CompileOptions {
                    aref_depth: d,
                    mma_depth: p,
                    persistent,
                    ..CompileOptions::default()
                };
                session.compile_program(&program, &opts).unwrap();
            }
        }
    }
    let stats = session.cache_stats();
    assert!(stats.disk.evictions > 0, "{stats:?}");
    assert!(stats.disk.bytes <= budget, "{stats:?}");

    // Evicted or not, a fresh session still compiles everything; the
    // cache is an accelerator, never a requirement.
    let fresh = disk_session(&dir);
    let k = fresh
        .compile_program(&program, &CompileOptions::default())
        .unwrap();
    assert!(!print_kernel(&k).is_empty());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_override_is_part_of_the_disk_key() {
    let dir = cache_dir("pipeline-key");
    let p = gemm(&GemmConfig::new(1024, 1024, 512));
    let default_opts = CompileOptions::default();
    let override_opts = CompileOptions {
        pipeline: Some(
            "warp-specialize{depth=2},fine-grained-pipeline{depth=2},coarse-pipeline,dce"
                .to_string(),
        ),
        ..CompileOptions::default()
    };

    let cold_session = disk_session(&dir);
    cold_session.compile_program(&p, &default_opts).unwrap();
    cold_session.compile_program(&p, &override_opts).unwrap();
    // Equivalent output, but two distinct entries: the override is part
    // of the environment fingerprint.
    assert_eq!(cold_session.cache_stats().disk.entries, 2);

    // A bad override is a structured error even with the cache attached,
    // and is not (negatively or otherwise) cached.
    let bad = CompileOptions {
        pipeline: Some("no-such-pass".to_string()),
        ..CompileOptions::default()
    };
    assert!(matches!(
        cold_session.compile_program(&p, &bad),
        Err(CompileError::Pass(_))
    ));
    assert_eq!(cold_session.cache_stats().disk.entries, 2);

    let _ = fs::remove_dir_all(&dir);
}
