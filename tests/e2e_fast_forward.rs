//! The steady-state skip is exact.
//!
//! Both walkers of a kernel's dynamic instruction stream — the simulator
//! engine and the static gate's abstract interpreter — jump over the
//! periodic part of every loop (`tawa_wsir::period`). These tests hold
//! each against its own plain walk, reached through the hidden
//! `run_sm_reference` / `analyze_reference` entry points, and require the
//! *whole* result to be equal: every `EngineStats` counter and the
//! deadlock string per CTA class, and the full lint list. They cover the 22 kernels of the benchmark's zoos,
//! every candidate of the five Fig. 11 sweeps, SIMT lowerings, template
//! kernels, random DSL programs and random WSIR kernels, at occupancy 1
//! and 2 — and they count engine events, the deterministic number the
//! skip is judged by.
//!
//! The same holds one level up: `simulate` and `analyze` walk a kernel's
//! CTA classes as one family (`run_classes`; shared prefix checkpoints and
//! known continuations, `tawa_wsir::period`), and every class's result
//! must equal the plain walk of that class on its own. The deterministic
//! work of both walkers — engine events, the gate's executed steps — is
//! pinned as literals at the bottom.

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::CompileOptions;
use tawa::frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig, Tile};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::frontend::Program;
use tawa::ir::types::DType;
use tawa::kernels::templates::{ws_attention, ws_gemm, AttentionStrategy, GemmStrategy};
use tawa::sim::engine::{run_classes, run_sm, run_sm_reference, EngineCfg};
use tawa::sim::run::wave_setup;
use tawa::sim::Device;
use tawa::wsir::analyze::{analyze_counted, analyze_reference};
use tawa::wsir::{
    analyze, analyze_with_budget, validate, BarId, Count, CtaClass, Instr, Kernel, MmaDtype, Role,
    DEFAULT_ANALYSIS_FUEL,
};
use tawa::CompileSession;

fn dev() -> Device {
    Device::h100_sxm5()
}

/// Engine events of one kernel, summed over its classes: walked as one
/// family (what `simulate` does), each class fast-forwarding on its own,
/// and plain.
#[derive(Debug, Clone, Copy, Default)]
struct Events {
    family: u64,
    fast: u64,
    plain: u64,
}

impl std::ops::AddAssign for Events {
    fn add_assign(&mut self, o: Events) {
        self.family += o.family;
        self.fast += o.fast;
        self.plain += o.plain;
    }
}

/// Holds both walkers against their references on `kernel`: the engine
/// as `simulate` runs it (the device's occupancy and bandwidth), the
/// engine with two residents of every class forced onto one SM, and the
/// gate's full lint list. Returns the event counts of the first.
fn assert_exact(kernel: &Kernel, what: &str) -> Result<Events, String> {
    let device = dev();
    let mut events = Events::default();
    if validate(kernel).is_err() {
        return Ok(events); // neither walker runs on a malformed kernel
    }
    // As `simulate` runs it. A kernel that does not fit never reaches the
    // engine.
    if let Ok((occ, cfg)) = wave_setup(kernel, &device) {
        let family = run_classes(kernel, &device, occ, &cfg);
        for (ci, class) in kernel.classes.iter().enumerate() {
            let residents: Vec<&CtaClass> = (0..occ).map(|_| class).collect();
            let f = run_sm(kernel, &device, &residents, &cfg);
            let p = run_sm_reference(kernel, &device, &residents, &cfg);
            if f.stats != p.stats || f.deadlock != p.deadlock {
                return Err(format!(
                    "{what}: class {ci} diverged\n fast  {:?} {:?}\n plain {:?} {:?}",
                    f.stats, f.deadlock, p.stats, p.deadlock
                ));
            }
            let g = &family[ci];
            if g.stats != p.stats || g.deadlock != p.deadlock || g.overflow {
                return Err(format!(
                    "{what}: class {ci} diverged in the family\n family {:?} {:?}\n plain  {:?} {:?}",
                    g.stats, g.deadlock, p.stats, p.deadlock
                ));
            }
            events += Events {
                family: g.events,
                fast: f.events,
                plain: p.events,
            };
        }
        // One class is no family: the same walk, and no checkpoint taken.
        if kernel.classes.len() == 1 && events.family != events.fast {
            return Err(format!(
                "{what}: a single class walked differently: {events:?}"
            ));
        }
    }

    // Occupancy 2, whether or not the kernel would fit twice: the engine
    // does not care, and a shared tensor core and memory channel change
    // every period.
    let cfg = EngineCfg {
        load_bw: 38.0,
        store_bw: 14.0,
    };
    for (ci, class) in kernel.classes.iter().enumerate().take(4) {
        let residents: [&CtaClass; 2] = [class, class];
        let f = run_sm(kernel, &device, &residents, &cfg);
        let p = run_sm_reference(kernel, &device, &residents, &cfg);
        if f.stats != p.stats || f.deadlock != p.deadlock {
            return Err(format!(
                "{what}: class {ci} ×2 residents diverged\n fast  {:?} {:?}\n plain {:?} {:?}",
                f.stats, f.deadlock, p.stats, p.deadlock
            ));
        }
    }
    // The family with two residents: every class against its own walk
    // (the plain one, except past the four classes checked above).
    let family = run_classes(kernel, &device, 2, &cfg);
    for (ci, class) in kernel.classes.iter().enumerate() {
        let residents: [&CtaClass; 2] = [class, class];
        let own = if ci < 4 {
            run_sm_reference(kernel, &device, &residents, &cfg)
        } else {
            run_sm(kernel, &device, &residents, &cfg)
        };
        let g = &family[ci];
        if g.stats != own.stats || g.deadlock != own.deadlock || g.overflow {
            return Err(format!(
                "{what}: class {ci} ×2 residents diverged in the family\n family {:?} {:?}\n own    {:?} {:?}",
                g.stats, g.deadlock, own.stats, own.deadlock
            ));
        }
    }

    let lints = analyze(kernel);
    let reference = analyze_reference(kernel, DEFAULT_ANALYSIS_FUEL);
    if lints != reference {
        return Err(format!(
            "{what}: lints diverged\n fast  {lints:?}\n plain {reference:?}"
        ));
    }
    Ok(events)
}

fn serving_options() -> CompileOptions {
    CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    }
}

fn tuned_gemm_options(persistent: bool) -> CompileOptions {
    CompileOptions {
        aref_depth: 3,
        mma_depth: 2,
        persistent,
        ..serving_options()
    }
}

fn fig8_gemm(k: usize, dtype: DType) -> Program {
    gemm(&GemmConfig {
        tile: Tile::LARGE,
        ..GemmConfig::new(8192, 8192, k).with_dtype(dtype)
    })
}

/// The benchmark's two zoos (`benchmark/src/zoo.rs`): 15 short and 7 long
/// kernels.
fn zoo() -> Vec<(String, Program, CompileOptions)> {
    let mut cases = Vec::new();
    for dtype in [DType::F16, DType::F8E4M3] {
        for k in [256, 512, 1024] {
            for persistent in [false, true] {
                cases.push((
                    format!("gemm K={k} {dtype:?} persistent={persistent}"),
                    fig8_gemm(k, dtype),
                    tuned_gemm_options(persistent),
                ));
            }
        }
        for k in [8192, 16384] {
            cases.push((
                format!("gemm K={k} {dtype:?} persistent"),
                fig8_gemm(k, dtype),
                tuned_gemm_options(true),
            ));
        }
    }
    cases.push((
        "batched gemm".into(),
        batched_gemm(&GemmConfig {
            tile: Tile::LARGE,
            ..GemmConfig::new(1024, 1024, 1024).with_batch(8)
        }),
        serving_options(),
    ));
    for (seq_len, causal) in [(1024, false), (2048, false), (8192, true), (16384, true)] {
        cases.push((
            format!("attention L={seq_len} causal={causal}"),
            attention(&AttentionConfig::paper(seq_len, causal, DType::F16)),
            serving_options(),
        ));
    }
    cases.push((
        "grouped gemm, 6 experts".into(),
        grouped_gemm(&GroupedGemmConfig {
            tile: Tile::LARGE,
            ..GroupedGemmConfig::paper_sweep(6)
        }),
        tuned_gemm_options(true),
    ));
    cases
}

#[test]
fn zoo_kernels_are_exact_and_the_long_gemm_needs_20x_fewer_events() {
    let session = CompileSession::in_memory(&dev());
    let zoo = zoo();
    assert_eq!(zoo.len(), 22);
    for (what, program, opts) in &zoo {
        let kernel = session.compile_program(program, opts).unwrap();
        let events = assert_exact(&kernel, what).unwrap();
        if what == "gemm K=8192 F16 persistent" {
            assert!(
                events.fast * 20 <= events.plain,
                "{what}: {events:?} — the steady state must be skipped"
            );
        }
        assert!(
            events.family <= events.fast,
            "{what}: {events:?} — walking the classes as a family may not cost events"
        );
    }
}

/// Family engine events and gate steps of one kernel, as `simulate` and
/// `analyze` spend them.
fn work(kernel: &Kernel) -> (u64, u64) {
    let device = dev();
    let (occ, cfg) = wave_setup(kernel, &device).unwrap();
    let events = run_classes(kernel, &device, occ, &cfg)
        .iter()
        .map(|r| r.events)
        .sum();
    (events, analyze_counted(kernel, DEFAULT_ANALYSIS_FUEL).1)
}

/// The deterministic work of both walkers on the benchmark's long zoo,
/// pinned exactly: (engine events, gate steps). A change that walks more,
/// or less, shows here. Before the family walk the two causal-attention
/// kernels cost 17 034 and 34 858 events (one prologue and one detection
/// per class).
#[test]
fn long_zoo_work_is_pinned() {
    let session = CompileSession::in_memory(&dev());
    let pins = [
        ("gemm K=8192 F16 persistent", 632, 528),
        ("gemm K=16384 F16 persistent", 574, 528),
        ("gemm K=8192 F8E4M3 persistent", 785, 528),
        ("gemm K=16384 F8E4M3 persistent", 778, 528),
        ("attention L=8192 causal=true", 1855, 1093),
        ("attention L=16384 causal=true", 1855, 1093),
        ("grouped gemm, 6 experts", 574, 528),
    ];
    let zoo = zoo();
    for (what, pinned_events, pinned_steps) in pins {
        let (_, program, opts) = zoo.iter().find(|(w, _, _)| w == what).unwrap();
        let kernel = session.compile_program(program, opts).unwrap();
        let (events, steps) = work(&kernel);
        assert_eq!(events, pinned_events, "{what}: engine events");
        assert_eq!(steps, pinned_steps, "{what}: gate steps");
    }
}

#[test]
fn simt_lowerings_are_exact() {
    let session = CompileSession::in_memory(&dev());
    let simt = CompileOptions {
        warp_specialize: false,
        ..CompileOptions::default()
    };
    let programs = [
        ("gemm", gemm(&GemmConfig::new(4096, 4096, 8192))),
        (
            "batched gemm",
            batched_gemm(&GemmConfig::new(2048, 2048, 4096).with_batch(4)),
        ),
        (
            "attention",
            attention(&AttentionConfig::paper(4096, false, DType::F16)),
        ),
        (
            "causal attention",
            attention(&AttentionConfig::paper(4096, true, DType::F16)),
        ),
    ];
    for (what, program) in &programs {
        for sw_stages in [1, 3] {
            let opts = CompileOptions {
                sw_stages,
                ..simt.clone()
            };
            let kernel = session.compile_program(program, &opts).unwrap();
            assert_exact(&kernel, &format!("simt {what} stages={sw_stages}")).unwrap();
        }
    }
}

/// The five Fig. 11 sweeps of the benchmark: shape, base options, panel.
fn fig11_sweeps() -> Vec<(String, Program, bool)> {
    let mut sweeps = Vec::new();
    for k in [4096, 16384] {
        for persistent in [false, true] {
            sweeps.push((
                format!("gemm K={k} persistent={persistent}"),
                fig8_gemm(k, DType::F16),
                persistent,
            ));
        }
    }
    sweeps.push((
        "causal attention L=4096".into(),
        attention(&AttentionConfig::paper(4096, true, DType::F16)),
        false,
    ));
    sweeps
}

#[test]
fn every_fig11_candidate_is_exact_and_guided_sweeps_need_5x_fewer_events() {
    let device = dev();
    let mut guided = Events::default();
    let mut guided_steps = 0;
    for (what, program, persistent) in fig11_sweeps() {
        let session = CompileSession::in_memory(&device);
        let (module, spec) = program.into_parts();
        let base = serving_options();
        let space = TuneSpace::fig11(persistent);
        let result = autotune_with_session(&session, &module, &spec, &base, &space);
        assert!(result.best.is_some(), "{what}: no feasible point");
        for p in &result.points {
            let opts = CompileOptions {
                aref_depth: p.aref_depth,
                mma_depth: p.mma_depth,
                cooperative: p.cooperative,
                persistent: p.persistent,
                ..base.clone()
            };
            let Ok(kernel) = session.compile(&module, &spec, &opts) else {
                continue; // infeasible cell
            };
            let label = format!("{what} D={} P={}", p.aref_depth, p.mma_depth);
            let events = assert_exact(&kernel, &label).unwrap();
            assert!(events.family <= events.fast, "{label}: {events:?}");
            // What the guided sweep actually simulated.
            if p.tflops.is_some() {
                guided += events;
                guided_steps += analyze_counted(&kernel, DEFAULT_ANALYSIS_FUEL).1;
            }
        }
    }
    assert!(guided.plain > 0);
    assert!(
        guided.fast * 5 <= guided.plain,
        "the five guided sweeps must need ≥ 5× fewer engine events: {guided:?}"
    );
    // Pinned: the work `simulate` and the gate do over the five sweeps.
    assert_eq!(guided.family, 10_567, "{guided:?}");
    assert_eq!(guided_steps, 7_095, "gate steps");
}

#[test]
fn template_kernels_are_exact() {
    let device = dev();
    let cfg = GemmConfig::new(4096, 4096, 8192);
    for persistent in [false, true] {
        for d in 1..=3usize {
            for p in 1..=d {
                let strat = GemmStrategy {
                    coop: 2,
                    d,
                    p,
                    persistent,
                    launch_ns: 900,
                    iter_bubble: 0.3,
                };
                if let Ok(kernel) = ws_gemm(&cfg, &strat, &device) {
                    assert_exact(&kernel, &format!("ws_gemm D={d} P={p} {persistent}")).unwrap();
                }
            }
        }
    }
}

// ------------------------------------------------------------- generators

/// Zoo attention shapes × schedules (the many-class corner: causal
/// attention lowers to one CTA class per diagonal trip count).
fn attention_cases() -> impl Strategy<Value = (AttentionConfig, AttentionStrategy)> {
    (
        prop_oneof![Just(1024usize), Just(2048), Just(4096)],
        prop_oneof![Just(false), Just(true)],
        1usize..4,
        1usize..3,
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(seq, causal, d, coop, overlap)| {
            (
                AttentionConfig::paper(seq, causal, DType::F16),
                AttentionStrategy {
                    coop,
                    d,
                    overlap,
                    softmax_exposure: 1.0,
                    launch_ns: 900,
                    iter_bubble: 0.0,
                },
            )
        })
}

/// DSL-built GEMM programs (random shape × lowering options) for the full
/// frontend → WSIR pipeline.
fn dsl_gemm_cases() -> impl Strategy<Value = (GemmConfig, CompileOptions)> {
    (
        prop_oneof![Just(1024usize), Just(2048), Just(4096)],
        prop_oneof![Just(1024usize), Just(2048)],
        prop_oneof![Just(512usize), Just(2048), Just(8192)],
        1usize..4,
        1usize..4,
        prop_oneof![Just(false), Just(true)],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(m, n, k, d, p, persistent, warp_specialize)| {
            (
                GemmConfig::new(m, n, k),
                CompileOptions {
                    aref_depth: d,
                    mma_depth: p.min(d),
                    persistent,
                    warp_specialize,
                    ..CompileOptions::default()
                },
            )
        })
}

/// What a random pipeline kernel varies. Defects (`credit = 0`, an arrive
/// count nobody meets, extra waits past the end) make it hang — early, or
/// a few trips past a long loop.
#[derive(Debug, Clone)]
struct Pipeline {
    depth: usize,
    trips: u64,
    tiles: u64,
    credit: u32,
    full_arrive_count: u32,
    extra_waits: u32,
    mma_pending: u32,
    consumers: usize,
    softmax_flops: u64,
    bubble: u64,
}

fn pipelines() -> impl Strategy<Value = Pipeline> {
    (
        (1usize..5, 1u64..400, 1u64..6),
        (
            prop_oneof![Just(1u32), Just(1), Just(1), Just(0)],
            prop_oneof![Just(1u32), Just(1), Just(1), Just(2)],
            prop_oneof![Just(0u32), Just(0), Just(1), Just(3), Just(7)],
        ),
        (0u32..3, 1usize..3, 0u64..40_000, 0u64..50),
    )
        .prop_map(
            |(
                (depth, trips, tiles),
                (credit, full_arrive_count, extra_waits),
                (mma_pending, consumers, softmax_flops, bubble),
            )| Pipeline {
                depth,
                trips,
                tiles,
                credit,
                full_arrive_count,
                extra_waits,
                mma_pending,
                consumers,
                softmax_flops,
                bubble,
            },
        )
}

/// A warp-specialized producer/consumer kernel over a `depth`-slot ring:
/// `$p1` tiles of a `$p0`-trip K-loop (trip counts from the CTA class, two
/// classes), an epilogue store per tile, optional softmax-like CUDA work
/// shared between the consumers.
fn pipeline_kernel(p: &Pipeline) -> Kernel {
    let mut k = Kernel::new("pipeline");
    k.smem_bytes = 200 * 1024;
    k.classes = vec![
        CtaClass {
            params: vec![p.trips, p.tiles],
            multiplicity: 100,
        },
        CtaClass {
            params: vec![p.trips / 2 + 1, 1],
            multiplicity: 3,
        },
    ];
    let mut full = Vec::new();
    let mut empty = Vec::new();
    for s in 0..p.depth {
        full.push(k.add_barrier(&format!("full{s}"), p.full_arrive_count));
        empty.push(k.add_barrier_init(&format!("empty{s}"), p.consumers as u32, p.credit));
    }
    let mut pbody = Vec::new();
    let mut cbody = Vec::new();
    for s in 0..p.depth {
        pbody.push(Instr::MbarWait { bar: empty[s] });
        pbody.push(Instr::TmaLoad {
            bytes: 16 * 1024,
            bar: full[s],
        });
        cbody.push(Instr::MbarWait { bar: full[s] });
        cbody.push(Instr::WgmmaIssue {
            m: 64,
            n: 128,
            k: 64,
            dtype: MmaDtype::F16,
        });
        cbody.push(Instr::WgmmaWait {
            pending: p.mma_pending,
        });
        if p.softmax_flops > 0 {
            cbody.push(Instr::CudaOp {
                flops: p.softmax_flops,
                sfu: p.softmax_flops / 16,
                label: "softmax",
            });
        }
        cbody.push(Instr::MbarArrive { bar: empty[s] });
    }
    if p.bubble > 0 {
        cbody.push(Instr::Delay { cycles: p.bubble });
    }
    let tile = |body: Vec<Instr>, tail: Vec<Instr>| {
        let mut tile = vec![Instr::loop_param(0, body)];
        tile.extend(tail);
        vec![Instr::loop_param(1, tile)]
    };
    k.add_warp_group(Role::Producer, 24, tile(pbody, vec![]));
    for _ in 0..p.consumers {
        let mut body = tile(
            cbody.clone(),
            vec![
                Instr::WgmmaWait { pending: 0 },
                Instr::GlobalStore { bytes: 8 * 1024 },
            ],
        );
        for _ in 0..p.extra_waits {
            body.push(Instr::MbarWait { bar: full[0] });
        }
        k.add_warp_group(Role::Consumer, 160, body);
    }
    k.useful_flops = 1e12;
    k
}

/// Leaf instructions over `nbars` barriers, every kind the ISA has.
fn leaf_instrs(nbars: u32) -> BoxedStrategy<Instr> {
    prop_oneof![
        (1u64..1 << 16, 0..nbars).prop_map(|(bytes, bar)| Instr::TmaLoad {
            bytes,
            bar: BarId(bar)
        }),
        (1u64..1 << 16).prop_map(|bytes| Instr::TmaStore { bytes }),
        (1u64..1 << 14).prop_map(|bytes| Instr::CpAsync { bytes }),
        (0u32..3).prop_map(|pending| Instr::CpAsyncWait { pending }),
        (0..nbars).prop_map(|bar| Instr::MbarArrive { bar: BarId(bar) }),
        (0..nbars).prop_map(|bar| Instr::MbarWait { bar: BarId(bar) }),
        (0..nbars).prop_map(|bar| Instr::MbarWait { bar: BarId(bar) }),
        (1u32..129, 1u32..129, 1u32..65).prop_map(|(m, n, k)| Instr::WgmmaIssue {
            m,
            n,
            k,
            dtype: MmaDtype::F16
        }),
        (0u32..3).prop_map(|pending| Instr::WgmmaWait { pending }),
        (1u64..1 << 14, 0u64..1 << 8).prop_map(|(flops, sfu)| Instr::CudaOp {
            flops,
            sfu,
            label: "softmax",
        }),
        (1u64..1 << 14).prop_map(|bytes| Instr::GlobalStore { bytes }),
        (1u64..1 << 14).prop_map(|bytes| Instr::GlobalLoad { bytes }),
        Just(Instr::Syncthreads),
        Just(Instr::SetMaxNReg { regs: 64 }),
        (0u64..200).prop_map(|cycles| Instr::Delay { cycles }),
    ]
    .boxed()
}

/// Random WSIR kernels in the shape of `proptest_serialize.rs`'s, with
/// what an engine run needs: barrier ids in range, trip counts it can walk,
/// two parameters per class, and one more warp group that keeps arriving
/// on every barrier so the others get somewhere. Most still hang in the
/// end; all must hang the same way on both walkers.
fn random_kernels() -> impl Strategy<Value = Kernel> {
    const NBARS: u32 = 4;
    let counts = prop_oneof![
        (1u64..60).prop_map(Count::Const),
        (0usize..2).prop_map(Count::Param),
    ]
    .boxed();
    let instrs = leaf_instrs(NBARS).prop_recursive(2, 12, 4, move |inner| {
        (counts.clone(), prop::collection::vec(inner, 1..5))
            .prop_map(|(count, body)| Instr::Loop { count, body })
    });
    (
        prop::collection::vec((1u32..3, 0u32..3), NBARS as usize..NBARS as usize + 1),
        prop::collection::vec(prop::collection::vec(instrs, 1..6), 1..4),
        (1u64..80, 1u64..5),
    )
        .prop_map(|(barriers, bodies, (p0, p1))| {
            let mut k = Kernel::new("random");
            k.smem_bytes = 64 * 1024;
            k.classes = vec![CtaClass {
                params: vec![p0, p1],
                multiplicity: 7,
            }];
            for (i, (arrive_count, init)) in barriers.into_iter().enumerate() {
                k.add_barrier_init(&format!("b{i}"), arrive_count, init);
            }
            for body in bodies {
                k.add_warp_group(Role::Uniform, 64, body);
            }
            let mut feed: Vec<Instr> = (0..NBARS)
                .map(|b| Instr::MbarArrive { bar: BarId(b) })
                .collect();
            feed.push(Instr::Delay { cycles: 90 });
            k.add_warp_group(Role::Uniform, 64, vec![Instr::loop_param(0, feed)]);
            k
        })
}

/// What a random multi-class kernel varies: the shapes the admission rule
/// of a class family has to tell apart (see `family_kernel`).
#[derive(Debug, Clone)]
struct FamilyCase {
    depth: usize,
    /// The main loops sit inside `loop $p1 { .. }` tiles: `$p0` frames are
    /// re-instantiated per outer trip.
    nested: bool,
    /// The consumer's main loop reads `$p3`, not `$p0`: a class whose two
    /// differ hangs a few trips after the shorter loop ends.
    split: bool,
    /// The producer starts with `loop $p2 { delay }`, which exits long
    /// before the first skip.
    early: bool,
    /// Both sides end with a `loop $p2 { .. }` over slot 0 (often zero
    /// trips).
    remainder: bool,
    softmax_flops: u64,
    /// `[$p0, $p1, $p2, $p3]` per class.
    classes: Vec<[u64; 4]>,
}

fn family_cases() -> impl Strategy<Value = FamilyCase> {
    // Classes close to a common base (so that they share prefixes, some
    // larger than the one walked first), far from it, equal to it.
    let class = (
        prop_oneof![Just(0u64), Just(0), 0u64..8, 0u64..150],
        prop_oneof![Just(0u64), Just(0), 0u64..4],
        prop_oneof![Just(None), (0u64..3).prop_map(Some)],
        prop_oneof![Just(0i64), Just(0), Just(0), -2i64..4],
    );
    (
        (1usize..4, 0u8..2, 0u8..2, 0u8..2, 0u8..2),
        prop_oneof![Just(0u64), 1u64..40_000],
        (0u64..150, 1u64..5, 0u64..3),
        prop::collection::vec(class, 2..7),
    )
        .prop_map(
            |((depth, nested, split, early, remainder), softmax_flops, (p0, p1, p2), classes)| {
                let classes = classes
                    .into_iter()
                    .map(|(below, fewer_tiles, other_p2, consumer)| {
                        let p0 = p0.saturating_sub(below);
                        let p3 = p0.saturating_add_signed(if split == 1 { consumer } else { 0 });
                        [
                            p0,
                            p1.saturating_sub(fewer_tiles).max(1),
                            other_p2.unwrap_or(p2),
                            p3,
                        ]
                    })
                    .collect();
                FamilyCase {
                    depth,
                    nested: nested == 1,
                    split: split == 1,
                    early: early == 1,
                    remainder: remainder == 1,
                    softmax_flops,
                    classes,
                }
            },
        )
}

/// A producer/consumer pipeline over a `depth`-slot ring whose trip counts
/// all come from the CTA class: `$p0` feeds the main loop of both sides (or
/// `$p3` the consumer's), `$p1` the tile loop around them, `$p2` a loop that
/// exits early and a remainder loop.
fn family_kernel(c: &FamilyCase) -> Kernel {
    let mut k = Kernel::new("family");
    k.smem_bytes = 200 * 1024;
    k.classes = (c.classes.iter().enumerate())
        .map(|(i, params)| CtaClass {
            params: params.to_vec(),
            multiplicity: 10 + i as u64,
        })
        .collect();
    let mut full = Vec::new();
    let mut empty = Vec::new();
    for s in 0..c.depth {
        full.push(k.add_barrier(&format!("full{s}"), 1));
        empty.push(k.add_barrier_init(&format!("empty{s}"), 1, 1));
    }
    let produce = |s: usize| {
        vec![
            Instr::MbarWait { bar: empty[s] },
            Instr::TmaLoad {
                bytes: 16 * 1024,
                bar: full[s],
            },
        ]
    };
    let consume = |s: usize| {
        let mut stage = vec![
            Instr::MbarWait { bar: full[s] },
            Instr::WgmmaIssue {
                m: 64,
                n: 128,
                k: 64,
                dtype: MmaDtype::F16,
            },
            Instr::WgmmaWait { pending: 0 },
        ];
        if c.softmax_flops > 0 {
            stage.push(Instr::CudaOp {
                flops: c.softmax_flops,
                sfu: c.softmax_flops / 16,
                label: "softmax",
            });
        }
        stage.push(Instr::MbarArrive { bar: empty[s] });
        stage
    };
    let program = |main: usize, stage: &dyn Fn(usize) -> Vec<Instr>, tail: Vec<Instr>| {
        let mut body = vec![Instr::loop_param(
            main,
            (0..c.depth).flat_map(stage).collect(),
        )];
        body.extend(tail);
        if c.nested {
            body = vec![Instr::loop_param(1, body)];
        }
        if c.remainder {
            body.push(Instr::loop_param(2, stage(0)));
        }
        body
    };
    let mut producer = program(0, &produce, vec![]);
    if c.early {
        producer.insert(0, Instr::loop_param(2, vec![Instr::Delay { cycles: 7 }]));
    }
    k.add_warp_group(Role::Producer, 24, producer);
    let main = if c.split { 3 } else { 0 };
    let store = vec![Instr::GlobalStore { bytes: 8 * 1024 }];
    k.add_warp_group(Role::Consumer, 160, program(main, &consume, store));
    k.useful_flops = 1e12;
    k
}

/// The generator above is not vacuous: classes that differ by a few trips
/// do start from the first one's checkpoint, and a class that must not
/// (its early loop ran a different number of trips) still gets its own
/// result — which `assert_exact` checks.
#[test]
fn close_classes_share_a_prefix_and_pinned_ones_do_not() {
    let case = |early, p2_of_last| FamilyCase {
        depth: 2,
        nested: false,
        split: false,
        early,
        remainder: true,
        softmax_flops: 0,
        classes: vec![[90, 1, 1, 90], [120, 1, 1, 120], [117, 1, p2_of_last, 117]],
    };
    let shared = assert_exact(&family_kernel(&case(false, 2)), "shared").unwrap();
    assert!(shared.family < shared.fast, "{shared:?}");
    // `$p2` exited inside the prefix: a class with another value walks alone.
    let same = assert_exact(&family_kernel(&case(true, 1)), "same").unwrap();
    let pinned = assert_exact(&family_kernel(&case(true, 2)), "pinned").unwrap();
    assert!(same.family < pinned.family, "{same:?} {pinned:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_zoo_attention_is_exact((cfg, strat) in attention_cases()) {
        if let Ok(kernel) = ws_attention(&cfg, &strat, &dev()) {
            assert_exact(&kernel, "ws_attention")?;
        }
    }

    #[test]
    fn random_dsl_programs_are_exact((cfg, opts) in dsl_gemm_cases()) {
        let session = CompileSession::in_memory(&dev());
        let (module, spec) = gemm(&cfg).into_parts();
        if let Ok(kernel) = session.compile(&module, &spec, &opts) {
            assert_exact(&kernel, "dsl gemm")?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_pipelines_are_exact(p in pipelines()) {
        let events = assert_exact(&pipeline_kernel(&p), &format!("{p:?}"))?;
        // A healthy long pipeline must actually have been skipped.
        if p.credit == 1 && p.full_arrive_count == 1 && p.trips * p.tiles >= 200 {
            prop_assert!(events.fast * 2 < events.plain, "{:?}: {:?}", p, events);
        }
    }

    #[test]
    fn random_wsir_kernels_are_exact(k in random_kernels()) {
        assert_exact(&k, "random kernel")?;
    }

    /// The interpretation budget runs out on the identical step: the same
    /// verdict whether the fuel ends before, inside or after the stretch
    /// the interpreter skips.
    #[test]
    fn analysis_budget_fires_identically(p in pipelines(), fuel in 1u64..6000) {
        let k = pipeline_kernel(&p);
        prop_assert_eq!(analyze_with_budget(&k, fuel), analyze_reference(&k, fuel));
    }

    /// Class families: every class of a random multi-class kernel gets the
    /// result of its own plain walk, whichever classes it shared a prefix
    /// or a tail with.
    #[test]
    fn random_class_families_are_exact(c in family_cases()) {
        assert_exact(&family_kernel(&c), &format!("{c:?}"))?;
    }

    /// ... and the budget fires on the identical step of the identical
    /// class, also in a class that started from another's checkpoint or
    /// would have reused its tail.
    #[test]
    fn analysis_budget_fires_identically_in_a_family(c in family_cases(), fuel in 1u64..6000) {
        let k = family_kernel(&c);
        prop_assert_eq!(analyze_with_budget(&k, fuel), analyze_reference(&k, fuel));
    }
}
