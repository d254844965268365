//! Corpus of known-broken and known-good barrier protocols for the static
//! analyzer.
//!
//! Every broken kernel here is *structurally* valid — it passes the cheap
//! [`tawa_wsir::validate`] tier that gates simulation — and is only caught
//! by the abstract-interpretation tier of [`tawa_wsir::analyze()`]. The
//! corpus pins down the split between the two tiers: `validate` must stay
//! shallow (so direct simulation of a broken protocol still produces a
//! dynamic deadlock report), while `analyze` must prove the defect without
//! running a single simulated cycle.

use proptest::prelude::*;
use tawa_wsir::analyze::analyze_reference;
use tawa_wsir::{
    analyze, analyze_with_budget, deadlock_verdict, validate, BarId, Instr, Kernel, Lint, LintKind,
    MmaDtype, Role, Severity, DEFAULT_ANALYSIS_FUEL,
};

/// The paper's Fig. 4 producer/consumer handshake over one tile slot.
/// `empty_init` is the initial credit on the `empty` barrier; the correct
/// protocol starts with exactly one.
fn handshake(iters: u64, empty_init: u32) -> Kernel {
    let mut k = Kernel::new("handshake");
    k.uniform_grid(4);
    k.smem_bytes = 64 * 1024;
    let full = k.add_barrier("full", 1);
    let empty = k.add_barrier_init("empty", 1, empty_init);
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
    k.add_warp_group(
        Role::Consumer,
        240,
        vec![Instr::loop_const(
            iters,
            vec![
                Instr::MbarWait { bar: full },
                Instr::WgmmaIssue {
                    m: 64,
                    n: 128,
                    k: 64,
                    dtype: MmaDtype::F16,
                },
                Instr::WgmmaWait { pending: 0 },
                Instr::MbarArrive { bar: empty },
            ],
        )],
    );
    k
}

/// Asserts the kernel passes the structural tier but the protocol tier
/// proves a definite deadlock, returning the lints for further inspection.
fn assert_statically_deadlocked(k: &Kernel, what: &str) -> Vec<Lint> {
    assert!(
        validate(k).is_ok(),
        "{what}: must be structurally valid (the cheap tier stays shallow)"
    );
    let lints = analyze(k);
    assert!(
        lints.iter().any(Lint::is_definite_deadlock),
        "{what}: expected a definite deadlock, got {lints:?}"
    );
    let verdict = deadlock_verdict(&lints).unwrap();
    assert!(
        verdict.starts_with("static deadlock:"),
        "{what}: bad verdict {verdict:?}"
    );
    lints
}

// ---------------------------------------------------------------- deadlocks

#[test]
fn corpus_circular_wait_without_credit() {
    // The simulator's own deadlock regression: both sides wait first and
    // no initial credit breaks the cycle.
    let lints = assert_statically_deadlocked(&handshake(16, 0), "no-credit handshake");
    // Both warp groups are blocked on a wait; each gets its own report.
    let stuck: Vec<_> = lints
        .iter()
        .filter(|l| matches!(l.kind, LintKind::StaticDeadlock { .. }))
        .collect();
    assert!(!stuck.is_empty(), "{lints:?}");
}

#[test]
fn corpus_arrive_count_shortfall() {
    // `full` demands two arrivals per phase but each iteration delivers
    // one TMA load: the consumer starves with 1/2 arrivals stranded.
    let mut k = handshake(8, 1);
    k.barriers[0].arrive_count = 2;
    let lints = assert_statically_deadlocked(&k, "arrive-count shortfall");
    assert!(
        lints.iter().any(|l| matches!(
            l.kind,
            LintKind::StaticDeadlock {
                arrivals: 1,
                arrive_count: 2,
                ..
            }
        )),
        "{lints:?}"
    );
}

#[test]
fn corpus_parity_mismatch() {
    // The consumer consumes two phases of `full` per produced phase: its
    // parity runs ahead of anything the producer can ever signal.
    let mut k = handshake(8, 1);
    k.warp_groups[1].body = vec![Instr::loop_const(
        8,
        vec![
            Instr::MbarWait { bar: BarId(0) },
            Instr::MbarWait { bar: BarId(0) },
            Instr::MbarArrive { bar: BarId(1) },
        ],
    )];
    assert_statically_deadlocked(&k, "parity mismatch");
}

#[test]
fn corpus_consumer_overruns_producer_trip_count() {
    // Off-by-one pipelining bug: the consumer's epilogue waits for one
    // more tile than the producer ever loads.
    let mut k = handshake(8, 1);
    k.warp_groups[1]
        .body
        .push(Instr::MbarWait { bar: BarId(0) });
    assert_statically_deadlocked(&k, "consumer overrun");
}

#[test]
fn corpus_missing_sync_participant() {
    // One warp group exits without reaching the CTA-wide rendezvous.
    let mut k = Kernel::new("lonely-sync");
    k.uniform_grid(2);
    k.add_warp_group(
        Role::Uniform,
        128,
        vec![Instr::loop_const(4, vec![Instr::Syncthreads])],
    );
    k.add_warp_group(
        Role::Uniform,
        128,
        vec![Instr::CudaOp {
            flops: 128,
            sfu: 0,
            label: "epilogue",
        }],
    );
    assert!(validate(&k).is_ok());
    let lints = analyze(&k);
    assert!(
        lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::SyncDeadlock { .. })),
        "{lints:?}"
    );
    assert!(deadlock_verdict(&lints).is_some());
}

// -------------------------------------------------------------------- races

#[test]
fn corpus_unguarded_overwrite_races() {
    // The producer free-runs: it never consumes a release credit before
    // overwriting the slot, so generation 1 lands while generation 0 may
    // still be read. In the analyzer's model liveness is fine — the
    // verdict is a race, not a deadlock.
    let mut k = handshake(8, 1);
    k.warp_groups[0].body = vec![Instr::loop_const(
        8,
        vec![Instr::TmaLoad {
            bytes: 32 * 1024,
            bar: BarId(0),
        }],
    )];
    assert!(validate(&k).is_ok());
    let lints = analyze(&k);
    let race = lints
        .iter()
        .find(|l| matches!(l.kind, LintKind::SharedMemRace { write: true, .. }))
        .unwrap_or_else(|| panic!("{lints:?}"));
    assert_eq!(race.severity(), Severity::Error);
    // A race is not a deadlock: the simulation gate must not convert it
    // into a negative cache entry.
    assert!(deadlock_verdict(&lints).is_none());
}

#[test]
fn corpus_unordered_release_races() {
    // The consumer releases the slot each iteration but only waited for
    // the first fill: later reads are unordered against the producer.
    let mut k = handshake(8, 1);
    k.warp_groups[1].body = vec![
        Instr::MbarWait { bar: BarId(0) },
        Instr::loop_const(8, vec![Instr::MbarArrive { bar: BarId(1) }]),
    ];
    assert!(validate(&k).is_ok());
    let lints = analyze(&k);
    assert!(
        lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::SharedMemRace { write: false, .. })),
        "{lints:?}"
    );
}

// ----------------------------------------------------------- protocol lints

/// Two 32 KiB tile slots in 48 KiB of declared shared memory.
fn tight_staging(iters: u64) -> Kernel {
    let mut k = Kernel::new("tight");
    k.uniform_grid(1);
    k.smem_bytes = 48 * 1024;
    let f0 = k.add_barrier("full0", 1);
    let e0 = k.add_barrier_init("empty0", 1, 1);
    let f1 = k.add_barrier("full1", 1);
    let e1 = k.add_barrier_init("empty1", 1, 1);
    k.add_warp_group(
        Role::Producer,
        24,
        vec![Instr::loop_const(
            iters,
            vec![
                Instr::MbarWait { bar: e0 },
                Instr::TmaLoad {
                    bytes: 32 * 1024,
                    bar: f0,
                },
                Instr::MbarWait { bar: e1 },
                Instr::TmaLoad {
                    bytes: 32 * 1024,
                    bar: f1,
                },
            ],
        )],
    );
    k.add_warp_group(
        Role::Consumer,
        240,
        vec![Instr::loop_const(
            iters,
            vec![
                Instr::MbarWait { bar: f0 },
                Instr::MbarArrive { bar: e0 },
                Instr::MbarWait { bar: f1 },
                Instr::MbarArrive { bar: e1 },
            ],
        )],
    );
    k
}

#[test]
fn corpus_under_provisioned_staging_warns() {
    // Double-buffered 32 KiB tiles in 48 KiB of shared memory: both slots
    // can be in flight at once, exceeding the declared footprint.
    let lints = analyze(&tight_staging(4));
    assert!(
        lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::SmemOverflow { .. })),
        "{lints:?}"
    );
    // Warnings never poison the negative cache.
    assert!(deadlock_verdict(&lints).is_none());
}

#[test]
fn corpus_dead_and_unawaited_barriers_warn() {
    let mut k = handshake(4, 1);
    let dead = k.add_barrier("scratch", 1);
    let stray = k.add_barrier("stray", 1);
    k.warp_groups[1].body.push(Instr::MbarArrive { bar: stray });
    let lints = analyze(&k);
    assert!(
        lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::DeadBarrier { bar, .. } if bar == dead)),
        "{lints:?}"
    );
    assert!(
        lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::UnawaitedBarrier { bar, .. } if bar == stray)),
        "{lints:?}"
    );
    assert!(lints.iter().all(|l| l.severity() == Severity::Warning));
}

// -------------------------------------------------------------------- clean

#[test]
fn corpus_correct_handshake_is_clean() {
    for iters in [1, 2, 8, 100] {
        let lints = analyze(&handshake(iters, 1));
        assert!(lints.is_empty(), "iters={iters}: {lints:?}");
    }
}

#[test]
fn corpus_multi_stage_pipeline_is_clean() {
    let lints = analyze(&rotating_pipeline(12));
    assert!(lints.is_empty(), "{lints:?}");
}

/// A depth-3 rotating pipeline in the shape `lower_ws` emits for the
/// ws-GEMM mainloop: three slot pairs, producer and consumer rotating
/// through them with adequate shared memory.
fn rotating_pipeline(iters: u64) -> Kernel {
    let depth = 3usize;
    let mut k = Kernel::new("pipe3");
    k.uniform_grid(8);
    k.smem_bytes = 4 * 64 * 1024;
    let mut fulls = Vec::new();
    let mut emptys = Vec::new();
    for s in 0..depth {
        fulls.push(k.add_barrier(&format!("full[{s}]"), 1));
        emptys.push(k.add_barrier_init(&format!("empty[{s}]"), 1, 1));
    }
    let mut prod = Vec::new();
    let mut cons = Vec::new();
    for s in 0..depth {
        prod.push(Instr::MbarWait { bar: emptys[s] });
        prod.push(Instr::TmaLoad {
            bytes: 64 * 1024,
            bar: fulls[s],
        });
        cons.push(Instr::MbarWait { bar: fulls[s] });
        cons.push(Instr::WgmmaIssue {
            m: 64,
            n: 256,
            k: 64,
            dtype: MmaDtype::F16,
        });
        cons.push(Instr::WgmmaWait { pending: 1 });
        cons.push(Instr::MbarArrive { bar: emptys[s] });
    }
    k.add_warp_group(Role::Producer, 24, vec![Instr::loop_const(iters, prod)]);
    k.add_warp_group(Role::Consumer, 240, vec![Instr::loop_const(iters, cons)]);
    k
}

// ------------------------------------------------ skipping the steady state

/// A handshake whose producer is paced by the consumer through a third
/// barrier (`bar2`, arrived before every read), so it advances one trip a
/// round instead of running through its credits at once: `prologue`, then
/// `iters` trips of `body`; the consumer reads and releases `tiles` tiles
/// a trip. `bar0` is the data barrier, `bar1` its guard with `credits`.
fn paced(iters: u64, credits: u32, prologue: Vec<Instr>, body: Vec<Instr>, tiles: usize) -> Kernel {
    let mut k = Kernel::new("paced");
    k.uniform_grid(1);
    k.smem_bytes = 1 << 20;
    let full = k.add_barrier("full", 1);
    let empty = k.add_barrier_init("empty", 1, credits);
    let pace = k.add_barrier("pace", 1);
    let mut producer = prologue;
    producer.push(Instr::loop_const(iters, body));
    k.add_warp_group(Role::Producer, 24, producer);
    let read = [
        Instr::MbarArrive { bar: pace },
        Instr::MbarWait { bar: full },
        Instr::MbarArrive { bar: empty },
    ];
    k.add_warp_group(
        Role::Consumer,
        240,
        vec![Instr::loop_const(
            iters,
            read.iter().cycle().take(3 * tiles).cloned().collect(),
        )],
    );
    k
}

/// Every protocol of this corpus, broken and good, over `iters` trips.
fn corpus(iters: u64) -> Vec<(&'static str, Kernel)> {
    let with = |edit: &dyn Fn(&mut Kernel)| {
        let mut k = handshake(iters, 1);
        edit(&mut k);
        k
    };
    vec![
        ("clean handshake", handshake(iters, 1)),
        ("no credit", handshake(iters, 0)),
        (
            "arrive-count shortfall",
            with(&|k| k.barriers[0].arrive_count = 2),
        ),
        (
            "parity mismatch",
            with(&|k| {
                k.warp_groups[1].body = vec![Instr::loop_const(
                    iters,
                    vec![
                        Instr::MbarWait { bar: BarId(0) },
                        Instr::MbarWait { bar: BarId(0) },
                        Instr::MbarArrive { bar: BarId(1) },
                    ],
                )]
            }),
        ),
        (
            "consumer overrun",
            with(&|k| {
                k.warp_groups[1]
                    .body
                    .push(Instr::MbarWait { bar: BarId(0) })
            }),
        ),
        (
            "producer three tiles short",
            with(&|k| {
                let Instr::Loop { body, .. } = k.warp_groups[0].body[0].clone() else {
                    unreachable!()
                };
                k.warp_groups[0].body = vec![Instr::loop_const(iters - 3, body)];
            }),
        ),
        (
            "unguarded overwrite",
            with(&|k| {
                k.warp_groups[0].body = vec![Instr::loop_const(
                    iters,
                    vec![Instr::TmaLoad {
                        bytes: 32 * 1024,
                        bar: BarId(0),
                    }],
                )]
            }),
        ),
        (
            "unordered release",
            with(&|k| {
                k.warp_groups[1].body = vec![
                    Instr::MbarWait { bar: BarId(0) },
                    Instr::loop_const(iters, vec![Instr::MbarArrive { bar: BarId(1) }]),
                ]
            }),
        ),
        (
            "late unordered release",
            // Ordered for `iters` trips, then one release too many: the
            // race's `generation` is past everything that was skipped.
            with(&|k| {
                k.warp_groups[1]
                    .body
                    .push(Instr::MbarArrive { bar: BarId(1) })
            }),
        ),
        (
            "stranded arrivals",
            with(&|k| {
                let stray = k.add_barrier("stray", 7);
                let Instr::Loop { body, .. } = &mut k.warp_groups[1].body[0] else {
                    unreachable!()
                };
                body.push(Instr::MbarArrive { bar: stray });
                k.warp_groups[0].body.push(Instr::MbarWait { bar: stray });
            }),
        ),
        (
            "overwrite once the credits run out",
            // Paced to one tile a round, the producer loads first and
            // waits after, which 50 initial credits cover for 50
            // generations: the race is generation 50.
            paced(
                iters,
                50,
                vec![],
                vec![
                    Instr::MbarWait { bar: BarId(2) },
                    Instr::TmaLoad {
                        bytes: 1024,
                        bar: BarId(0),
                    },
                    Instr::MbarWait { bar: BarId(1) },
                ],
                1,
            ),
        ),
        (
            "overwrite after a head start",
            // 60 credits consumed up front, then two loads per credit:
            // the head start is used up around generation 120, past the
            // 100 initial credits and deep in the steady state.
            paced(
                iters,
                100,
                vec![Instr::loop_const(
                    60,
                    vec![Instr::MbarWait { bar: BarId(1) }],
                )],
                vec![
                    Instr::MbarWait { bar: BarId(2) },
                    Instr::MbarWait { bar: BarId(1) },
                    Instr::TmaLoad {
                        bytes: 1024,
                        bar: BarId(0),
                    },
                    Instr::MbarWait { bar: BarId(2) },
                    Instr::TmaLoad {
                        bytes: 1024,
                        bar: BarId(0),
                    },
                ],
                2,
            ),
        ),
        (
            "releases overtake the reads",
            // The consumer reads 50 tiles ahead, then releases two slots
            // per tile read: its lead shrinks by one a trip and is gone on
            // trip 51 (release 101), long after the loop found its rhythm.
            {
                let mut k = handshake(iters + 50, 60);
                k.barriers[1].arrive_count = 2;
                k.warp_groups[1].body = vec![
                    Instr::loop_const(50, vec![Instr::MbarWait { bar: BarId(0) }]),
                    Instr::loop_const(
                        iters,
                        vec![
                            Instr::MbarWait { bar: BarId(0) },
                            Instr::MbarArrive { bar: BarId(1) },
                            Instr::MbarArrive { bar: BarId(1) },
                        ],
                    ),
                ];
                k
            },
        ),
        ("under-provisioned staging", tight_staging(iters)),
        ("rotating pipeline", rotating_pipeline(iters)),
        ("lonely sync", {
            let mut k = Kernel::new("lonely-sync");
            k.uniform_grid(2);
            k.add_warp_group(
                Role::Uniform,
                128,
                vec![Instr::loop_const(iters, vec![Instr::Syncthreads])],
            );
            k.add_warp_group(
                Role::Uniform,
                128,
                vec![Instr::loop_const(iters - 1, vec![Instr::Syncthreads])],
            );
            k
        }),
    ]
}

/// The interpreter skips the steady state of every loop; its findings —
/// `waiting_phase` / `completed_phases` / `arrivals` of a deadlock, the
/// `generation` of a race, `max_in_flight`, a stranded `residue` — must be
/// those of walking every trip.
#[test]
fn corpus_lints_are_identical_with_trip_counts_in_the_hundreds() {
    for iters in [7, 100, 257, 600] {
        for (what, k) in corpus(iters) {
            assert_eq!(
                analyze(&k),
                analyze_reference(&k, DEFAULT_ANALYSIS_FUEL),
                "{what} at {iters} trips"
            );
        }
    }
    // The corpus still says what it is meant to say at that length.
    let lints = |what: &str| {
        let corpus = corpus(600);
        let (_, k) = corpus.iter().find(|(w, _)| *w == what).unwrap();
        analyze(k)
    };
    assert!(lints("clean handshake").is_empty());
    assert!(lints("producer three tiles short").iter().any(|l| matches!(
        l.kind,
        LintKind::StaticDeadlock {
            waiting_phase: 597,
            completed_phases: 597,
            ..
        }
    )));
    assert!(lints("late unordered release").iter().any(|l| matches!(
        l.kind,
        LintKind::SharedMemRace {
            generation: 600,
            write: false,
            ..
        }
    )));
    for (what, generation) in [
        ("overwrite once the credits run out", 50),
        ("overwrite after a head start", 121),
    ] {
        let lints = lints(what);
        assert!(
            lints.iter().any(|l| matches!(
                l.kind,
                LintKind::SharedMemRace { generation: g, write: true, .. } if g == generation
            )),
            "{what}: {lints:?}"
        );
    }
    assert!(lints("releases overtake the reads")
        .iter()
        .any(|l| matches!(
            l.kind,
            LintKind::SharedMemRace {
                generation: 101,
                write: false,
                ..
            }
        )));
    // 600 arrivals at seven per phase strand five.
    assert!(lints("stranded arrivals")
        .iter()
        .any(|l| matches!(l.kind, LintKind::DoubleArrive { residue: 5, .. })));
    assert!(lints("under-provisioned staging").iter().any(|l| matches!(
        l.kind,
        LintKind::SmemOverflow {
            max_in_flight: 65536,
            ..
        }
    )));
}

/// `AnalysisBudget` fires on the identical step: the same lint list for
/// budgets that end before, inside and after the stretch that is skipped.
#[test]
fn corpus_budget_verdicts_are_identical() {
    for (what, k) in corpus(400) {
        // A 400-trip handshake takes 2400 abstract steps.
        for fuel in [1, 2, 9, 50, 333, 1000, 2399, 2400, 2401, 2500, 100_000] {
            assert_eq!(
                analyze_with_budget(&k, fuel),
                analyze_reference(&k, fuel),
                "{what} at fuel {fuel}"
            );
        }
    }
    let starved = analyze_with_budget(&handshake(400, 1), 1000);
    assert!(
        starved
            .iter()
            .any(|l| matches!(l.kind, LintKind::AnalysisBudget { budget: 1000, .. })),
        "{starved:?}"
    );
}

// ----------------------------------------------------------------- proptest

proptest! {
    /// Credit soundness over the whole handshake family: one initial
    /// credit per slot is live and clean; zero credits deadlock — and the
    /// analyzer must say so for every trip count.
    #[test]
    fn handshake_family_verdicts(iters in 1u64..40) {
        let good = analyze(&handshake(iters, 1));
        prop_assert!(good.is_empty(), "{good:?}");
        let bad = analyze(&handshake(iters, 0));
        prop_assert!(deadlock_verdict(&bad).is_some(), "{bad:?}");
    }

    /// Trip-count mismatch soundness: a consumer expecting `extra` more
    /// phases than are produced deadlocks iff `extra > 0`.
    #[test]
    fn trip_count_mismatch_verdicts(iters in 1u64..20, extra in 0u64..3) {
        let mut k = handshake(iters, 1);
        for _ in 0..extra {
            k.warp_groups[1].body.push(Instr::MbarWait { bar: BarId(0) });
        }
        let lints = analyze(&k);
        if extra > 0 {
            prop_assert!(deadlock_verdict(&lints).is_some(), "{lints:?}");
        } else {
            prop_assert!(lints.is_empty(), "{lints:?}");
        }
    }
}
