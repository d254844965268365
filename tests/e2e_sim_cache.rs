//! End-to-end tests of the persistent simulation-report tier: a fresh
//! session pointed at a warm cache directory replays a full autotune
//! sweep with **zero** simulator invocations, reports served from disk
//! are byte-identical to the cold run (property-tested across kernel
//! families), simulation failures are remembered like infeasibility
//! verdicts, and a cost-model version bump invalidates exactly the
//! stale reports — never the cached kernels.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::CompileOptions;
use tawa::frontend::config::{AttentionConfig, GemmConfig};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::frontend::GroupedGemmConfig;
use tawa::ir::types::DType;
use tawa::sim::{deserialize_report, serialize_report, Device, COST_MODEL_VERSION};
use tawa::{CompileSession, Program};

fn dev() -> Device {
    Device::h100_sxm5()
}

/// A unique, pre-cleaned cache directory under the system temp dir.
fn cache_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tawa-e2e-sim-cache-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn disk_session(dir: &PathBuf) -> CompileSession {
    CompileSession::in_memory(&dev())
        .with_disk_cache(dir)
        .expect("cache dir must open")
}

/// THE acceptance property of the sim tier: a second session pointed at
/// the same disk cache replays a full autotune sweep with zero
/// `simulate` calls — every feasible point is a sim-tier disk hit and
/// every infeasible point a negative hit, so neither the compiler nor
/// the simulator runs.
#[test]
fn restart_warm_sweep_never_invokes_the_simulator() {
    let dir = cache_dir("warm-sweep");
    let p = gemm(&GemmConfig::new(2048, 2048, 2048));
    let base = CompileOptions::default();
    // The full tuning space: D × P × cooperation × persistence, with the
    // infeasible P > D triangle included.
    let space = TuneSpace::default();

    let cold_session = disk_session(&dir);
    let cold = autotune_with_session(&cold_session, p.module(), p.spec(), &base, &space);
    let cold_stats = cold_session.cache_stats();
    let feasible = cold.points.iter().filter(|p| p.tflops.is_some()).count();
    assert!(feasible > 0, "the sweep must contain feasible points");
    assert_eq!(cold_stats.sim_misses, feasible as u64, "{cold_stats:?}");

    // Simulated restart.
    let warm_session = disk_session(&dir);
    let warm = autotune_with_session(&warm_session, p.module(), p.spec(), &base, &space);
    let stats = warm_session.cache_stats();
    assert_eq!(
        stats.sim_misses, 0,
        "warm sweep must not simulate: {stats:?}"
    );
    assert_eq!(
        stats.kernel_misses, 0,
        "warm sweep must not compile: {stats:?}"
    );
    assert_eq!(stats.disk.sim_hits, feasible as u64, "{stats:?}");
    assert!(stats.disk.negative_hits > 0, "{stats:?}");
    for (c, w) in cold.points.iter().zip(&warm.points) {
        // Bit-identical throughputs: the reports came from disk.
        assert_eq!(
            c.tflops.map(f64::to_bits),
            w.tflops.map(f64::to_bits),
            "warm sweep must reproduce the cold one exactly"
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cost_model_bump_invalidates_reports_but_not_kernels() {
    let dir = cache_dir("cost-model-bump");
    let p = gemm(&GemmConfig::new(1024, 1024, 512));
    let opts = CompileOptions::default();

    let cold_session = disk_session(&dir);
    let cold = cold_session
        .compile_and_simulate_program(&p, &opts)
        .unwrap();

    // Rewrite the cost-model echo in every .sim entry, simulating
    // reports persisted by a build with an older timing model.
    let mut rewritten = 0;
    for entry in fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().map(|e| e == "sim").unwrap_or(false) {
            let text = fs::read_to_string(&path).unwrap();
            let stale = text.replacen(
                &format!("cost-model {COST_MODEL_VERSION}"),
                &format!("cost-model {}", COST_MODEL_VERSION.wrapping_add(1)),
                1,
            );
            assert_ne!(stale, text, "sim entry must echo the cost model");
            fs::write(&path, stale).unwrap();
            rewritten += 1;
        }
    }
    assert_eq!(rewritten, 1, "exactly one report was persisted");

    // A fresh session re-simulates (the stale report is invalidated)
    // but does NOT recompile: the kernel entry still serves.
    let fresh = disk_session(&dir);
    let replay = fresh.compile_and_simulate_program(&p, &opts).unwrap();
    assert_eq!(cold, replay, "same cost model, same numbers");
    let stats = fresh.cache_stats();
    assert_eq!(stats.sim_misses, 1, "{stats:?}");
    assert_eq!(
        stats.kernel_misses, 0,
        "kernels must survive the bump: {stats:?}"
    );
    assert_eq!(stats.disk.hits, 1, "served from the kernel tier: {stats:?}");
    assert!(stats.disk.invalidations >= 1, "{stats:?}");

    // The re-simulated report was written back: the next restart is
    // fully warm again.
    let warm = disk_session(&dir);
    warm.compile_and_simulate_program(&p, &opts).unwrap();
    let stats = warm.cache_stats();
    assert_eq!(stats.disk.sim_hits, 1, "{stats:?}");
    assert_eq!(stats.sim_misses, 0, "{stats:?}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn vandalized_sim_entries_degrade_to_resimulation() {
    let dir = cache_dir("sim-corruption");
    let p = gemm(&GemmConfig::new(1024, 1024, 512));
    let opts = CompileOptions::default();

    let cold_session = disk_session(&dir);
    let cold = cold_session
        .compile_and_simulate_program(&p, &opts)
        .unwrap();

    for entry in fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().map(|e| e == "sim").unwrap_or(false) {
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }
    }

    let recovered = disk_session(&dir);
    let replay = recovered.compile_and_simulate_program(&p, &opts).unwrap();
    assert_eq!(cold, replay);
    let stats = recovered.cache_stats();
    assert_eq!(stats.sim_misses, 1, "{stats:?}");
    assert!(stats.disk.invalidations >= 1, "{stats:?}");

    let _ = fs::remove_dir_all(&dir);
}

/// Strategy over (family name, program) covering all four kernel
/// families, mirroring `e2e_serialize.rs`.
fn families() -> impl Strategy<Value = (&'static str, Program)> {
    prop_oneof![
        (
            prop_oneof![Just(1024usize), Just(2048)],
            prop_oneof![Just(512usize), Just(2048)],
        )
            .prop_map(|(mn, k)| ("gemm", gemm(&GemmConfig::new(mn, mn, k)))),
        prop_oneof![Just(2usize), Just(8)].prop_map(|b| (
            "batched_gemm",
            batched_gemm(&GemmConfig::new(1024, 1024, 1024).with_batch(b)),
        )),
        prop_oneof![Just(2usize), Just(4)].prop_map(|g| (
            "grouped_gemm",
            grouped_gemm(&GroupedGemmConfig::paper_sweep(g)),
        )),
        prop_oneof![Just(1024usize), Just(4096)].prop_map(|l| {
            let cfg = AttentionConfig {
                block_m: 64,
                ..AttentionConfig::paper(l, false, DType::F16)
            };
            ("attention", attention(&cfg))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Byte-identical round-trips for REAL simulator output: across all
    /// four kernel families, `deserialize(serialize(report))` reproduces
    /// the report exactly and the serialized form is a fixpoint — the
    /// disk tier can never corrupt a report it faithfully wrote.
    #[test]
    fn real_reports_round_trip_byte_identically(
        (family, program) in families(),
        aref_depth in 1usize..4,
    ) {
        let session = CompileSession::in_memory(&dev());
        let opts = CompileOptions {
            aref_depth,
            mma_depth: 1,
            ..CompileOptions::default()
        };
        let report = session
            .compile_and_simulate_program(&program, &opts)
            .map_err(|e| format!("{family}: {e}"))?;
        let text = serialize_report(&report);
        let back = deserialize_report(&text)
            .map_err(|e| format!("{family}: deserialize failed: {e}\n{text}"))?;
        prop_assert_eq!(&report, &back, "{} round-trip diverged", family);
        prop_assert_eq!(serialize_report(&back), text);
    }
}
