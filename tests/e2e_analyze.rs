//! End-to-end tests of the static analysis tier (`tawa_wsir::analyze`)
//! against the rest of the stack:
//!
//! * **soundness vs the engine** — every kernel the discrete-event
//!   simulator deadlocks on is flagged statically, property-tested over a
//!   family of randomly mutated handshake protocols;
//! * **precision on real output** — everything the compiler actually
//!   emits (the kernel zoo and a DSL-authored fused kernel, specialized
//!   and SIMT) lints clean, warnings included;
//! * **diagnostics** — a race injected into a DSL-authored kernel is
//!   reported with the author's `file:line`, threaded from the DSL
//!   through lowering into the barrier it guards;
//! * **the simulation gate** — an autotune sweep over a disk cache with
//!   poisoned (deadlocking) kernel entries counts `static_rejections`,
//!   never invokes the simulator for them, and still picks the same best
//!   configuration with bit-identical throughput.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::cache::{CacheKey, EntryKind};
use tawa::core::CompileOptions;
use tawa::frontend::config::{AttentionConfig, GemmConfig};
use tawa::frontend::kernels::{attention, batched_gemm, gemm};
use tawa::ir::types::DType;
use tawa::sim::{simulate, Device, SimError};
use tawa::wsir::{analyze, deadlock_verdict, validate, BarId, Instr, Kernel, LintKind, Role};
use tawa::CompileSession;

fn dev() -> Device {
    Device::h100_sxm5()
}

fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tawa-e2e-analyze-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The Fig. 4 producer/consumer handshake, parameterized over the knobs
/// the proptest mutates: trip count, initial credit on `empty`, arrival
/// demand on `full`, and extra epilogue waits by the consumer.
fn handshake(iters: u64, credit: u32, full_arrive_count: u32, extra_waits: u32) -> Kernel {
    let mut k = Kernel::new("handshake");
    k.uniform_grid(1);
    k.smem_bytes = 64 * 1024;
    let full = k.add_barrier("full", full_arrive_count);
    let empty = k.add_barrier_init("empty", 1, credit);
    k.add_warp_group(
        Role::Producer,
        24,
        vec![Instr::loop_const(
            iters,
            vec![
                Instr::MbarWait { bar: empty },
                Instr::TmaLoad {
                    bytes: 32 * 1024,
                    bar: full,
                },
            ],
        )],
    );
    let mut consumer = vec![Instr::loop_const(
        iters,
        vec![
            Instr::MbarWait { bar: full },
            Instr::MbarArrive { bar: empty },
        ],
    )];
    for _ in 0..extra_waits {
        consumer.push(Instr::MbarWait { bar: full });
    }
    k.add_warp_group(Role::Consumer, 240, consumer);
    k
}

/// A structurally valid kernel whose circular wait provably hangs — the
/// shape used to poison cache entries below.
fn deadlocking_kernel() -> Kernel {
    handshake(1, 0, 1, 0)
}

#[test]
fn engine_deadlock_corpus_is_rejected_statically() {
    let device = dev();
    let corpus = [
        ("circular wait, no credit", handshake(16, 0, 1, 0)),
        ("arrive-count shortfall", handshake(8, 1, 2, 0)),
        ("consumer overrun", handshake(8, 1, 1, 1)),
    ];
    for (what, k) in &corpus {
        // All corpus kernels pass the shallow tier: only the engine (at
        // simulate time) or the protocol tier (statically) can see the
        // defect.
        assert!(validate(k).is_ok(), "{what}: must be structurally valid");
        assert!(
            matches!(simulate(k, &device), Err(SimError::Deadlock(_))),
            "{what}: the engine must deadlock"
        );
        let lints = analyze(k);
        assert!(
            deadlock_verdict(&lints).is_some(),
            "{what}: the checker must flag what the engine hangs on, got {lints:?}"
        );
    }
}

#[test]
fn races_are_caught_statically_where_the_engine_is_blind() {
    // The consumer releases the tile slot every iteration but only waits
    // for the first fill: later reads are unordered against the producer.
    // The engine happily simulates this to completion (liveness is fine —
    // it is a *data* race), but the checker must reject it.
    let mut k = handshake(8, 1, 1, 0);
    k.warp_groups[1].body = vec![
        Instr::MbarWait { bar: BarId(0) },
        Instr::loop_const(8, vec![Instr::MbarArrive { bar: BarId(1) }]),
    ];
    let sim = simulate(&k, &dev());
    assert!(sim.is_ok(), "a race is not a hang: {sim:?}");
    let lints = analyze(&k);
    assert!(
        lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::SharedMemRace { write: false, .. })),
        "{lints:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine/checker agreement over the mutated-handshake family: the
    /// engine deadlocks exactly when the checker proves a deadlock. The
    /// soundness direction (engine hangs ⇒ statically flagged) is what
    /// lets the session gate skip the simulator; the converse keeps the
    /// gate from pruning live configurations.
    #[test]
    fn engine_and_checker_agree_on_mutated_handshakes(
        iters in 1u64..12,
        credit in 0u32..2,
        full_arrive_count in 1u32..3,
        extra_waits in 0u32..2,
    ) {
        let k = handshake(iters, credit, full_arrive_count, extra_waits);
        prop_assert!(validate(&k).is_ok());
        let engine_deadlocks = matches!(simulate(&k, &dev()), Err(SimError::Deadlock(_)));
        let verdict = deadlock_verdict(&analyze(&k));
        prop_assert_eq!(
            engine_deadlocks,
            verdict.is_some(),
            "engine and checker disagree on iters={} credit={} arrive_count={} extra={}: {:?}",
            iters, credit, full_arrive_count, extra_waits, verdict
        );
    }
}

#[test]
fn compiler_output_lints_clean_warnings_included() {
    let session = CompileSession::in_memory(&dev());
    let ws = CompileOptions::default();
    let coop = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let simt = CompileOptions {
        warp_specialize: false,
        ..CompileOptions::default()
    };
    let programs = [
        ("gemm", gemm(&GemmConfig::new(4096, 4096, 4096)), &ws),
        (
            "batched-gemm",
            batched_gemm(&GemmConfig::new(2048, 2048, 1024).with_batch(8)),
            &ws,
        ),
        (
            "attention",
            attention(&AttentionConfig::paper(4096, false, DType::F16)),
            &coop,
        ),
    ];
    for (label, program, ws_opts) in &programs {
        for (variant, opts) in [("ws", *ws_opts), ("simt", &simt)] {
            let kernel = session.compile_program(program, opts).unwrap();
            let lints = analyze(&kernel);
            assert!(
                lints.is_empty(),
                "{label} [{variant}] must lint clean, got {lints:?}"
            );
        }
    }
}

/// Recursively removes every `MbarWait` from an instruction stream —
/// the shape of a hand-written producer that forgot its guard waits.
fn strip_waits(instrs: &mut Vec<Instr>) {
    instrs.retain_mut(|i| match i {
        Instr::MbarWait { .. } => false,
        Instr::Loop { body, .. } => {
            strip_waits(body);
            true
        }
        _ => true,
    });
}

#[test]
fn race_diagnostic_names_the_dsl_authors_line() {
    // Compile the DSL-authored zoo GEMM: lowering stamps each aref's
    // barriers with the source span of the DSL call that created the
    // aref. Then break the protocol the way an author would — drop the
    // producer's guard waits — and the race report must point back at
    // the author's file:line, not a WSIR barrier index.
    let session = CompileSession::in_memory(&dev());
    let program = gemm(&GemmConfig::new(2048, 2048, 2048));
    let compiled = session
        .compile_program(&program, &CompileOptions::default())
        .unwrap();
    let mut broken: Kernel = (*compiled).clone();
    let producer = broken
        .warp_groups
        .iter()
        .position(|wg| wg.role == Role::Producer)
        .expect("ws-gemm has a producer warp group");
    strip_waits(&mut broken.warp_groups[producer].body);

    let lints = analyze(&broken);
    let race = lints
        .iter()
        .find(|l| matches!(l.kind, LintKind::SharedMemRace { .. }))
        .unwrap_or_else(|| panic!("expected a race, got {lints:?}"));
    let loc = race.loc.expect("race lint must carry the authoring span");
    assert!(
        loc.file.ends_with("gemm.rs"),
        "span must name the DSL author's file, got {loc}"
    );
    let rendered = race.to_string();
    assert!(
        rendered.contains("gemm.rs:"),
        "diagnostic must print file:line, got {rendered}"
    );
}

#[test]
fn static_gate_keeps_autotune_best_config_bit_identical() {
    let device = dev();
    let program = gemm(&GemmConfig::new(2048, 2048, 2048));
    let base = CompileOptions::default();
    let space = TuneSpace::fig11(false);

    // Unchecked reference: a clean sweep with no disk cache in play.
    // Every sweep simulates every candidate, so the gate sees the
    // deliberately-worst configurations too.
    let reference_session = CompileSession::in_memory(&device);
    let reference = autotune_with_session(
        &reference_session,
        program.module(),
        program.spec(),
        &base,
        &space,
    );
    let best = reference.best.expect("fig11 has feasible points");

    // Seed a disk cache one configuration at a time (compile only — no
    // simulation reports land on disk), diffing the entry set to learn
    // which key belongs to which sweep point. Then poison the two worst
    // feasible configurations with a protocol-deadlocking kernel.
    let dir = cache_dir("gate-sweep");
    let seeder = CompileSession::in_memory(&device)
        .with_disk_cache(&dir)
        .unwrap();
    let disk = seeder.disk_cache().unwrap();
    let mut worst: Vec<usize> = (0..reference.points.len())
        .filter(|&i| reference.points[i].tflops.is_some())
        .collect();
    worst.sort_by(|&a, &b| {
        reference.points[a]
            .tflops
            .partial_cmp(&reference.points[b].tflops)
            .unwrap()
    });
    let poisoned: HashSet<usize> = worst.iter().copied().take(2).collect();
    assert!(
        !poisoned.contains(&best),
        "poisoning targets must not include the winner"
    );

    let mut seen: HashSet<CacheKey> = HashSet::new();
    for (i, p) in reference.points.iter().enumerate() {
        let opts = CompileOptions {
            aref_depth: p.aref_depth,
            mma_depth: p.mma_depth,
            cooperative: p.cooperative,
            persistent: p.persistent,
            ..base.clone()
        };
        if seeder.compile_program(&program, &opts).is_err() {
            continue; // infeasible: only a .neg entry, nothing to poison
        }
        let key = disk
            .entries()
            .into_iter()
            .filter(|e| e.kind == EntryKind::Kernel)
            .map(|e| e.key)
            .find(|k| !seen.contains(k))
            .expect("each feasible compile adds one kernel entry");
        seen.insert(key);
        if poisoned.contains(&i) {
            disk.store(&key, &deadlocking_kernel());
        }
    }

    // Checked sweep over the poisoned cache in a fresh session: every
    // kernel is served from disk, the gate statically rejects the two
    // poisoned configurations without ever simulating them, and the
    // best configuration's throughput is bit-identical to the clean
    // reference sweep.
    let swept = CompileSession::in_memory(&device)
        .with_disk_cache(&dir)
        .unwrap();
    let checked = autotune_with_session(&swept, program.module(), program.spec(), &base, &space);
    let stats = swept.cache_stats();
    assert_eq!(stats.static_rejections, 2, "{stats:?}");
    assert_eq!(
        stats.kernel_misses, 0,
        "all kernels come from disk: {stats:?}"
    );
    let feasible = reference
        .points
        .iter()
        .filter(|p| p.tflops.is_some())
        .count();
    assert_eq!(
        stats.sim_misses,
        (feasible - poisoned.len()) as u64,
        "the simulator must run only for unpoisoned feasible points: {stats:?}"
    );

    for (i, (r, c)) in reference.points.iter().zip(&checked.points).enumerate() {
        if poisoned.contains(&i) {
            assert!(
                c.tflops.is_none(),
                "poisoned point {i} must be pruned, got {c:?}"
            );
        } else {
            assert_eq!(
                r.tflops.map(f64::to_bits),
                c.tflops.map(f64::to_bits),
                "point {i} must be bit-identical"
            );
        }
    }
    assert_eq!(checked.best, reference.best, "the winner must not change");
    assert_eq!(
        checked.best_tflops().unwrap().to_bits(),
        reference.best_tflops().unwrap().to_bits(),
        "best-config throughput must be bit-identical"
    );

    // The verdicts persisted: a restarted session serves them from disk
    // without re-running the analyzer or the simulator.
    let warm = CompileSession::in_memory(&device)
        .with_disk_cache(&dir)
        .unwrap();
    let rerun = autotune_with_session(&warm, program.module(), program.spec(), &base, &space);
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.disk.static_rejections, 2, "{warm_stats:?}");
    assert_eq!(warm_stats.static_rejections, 0, "{warm_stats:?}");
    assert_eq!(warm_stats.sim_misses, 0, "{warm_stats:?}");
    assert_eq!(
        rerun.best_tflops().unwrap().to_bits(),
        reference.best_tflops().unwrap().to_bits()
    );

    let _ = fs::remove_dir_all(&dir);
}
