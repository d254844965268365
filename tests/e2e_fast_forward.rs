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

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::CompileOptions;
use tawa::frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig, Tile};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::frontend::Program;
use tawa::ir::types::DType;
use tawa::kernels::templates::{ws_attention, ws_gemm, AttentionStrategy, GemmStrategy};
use tawa::sim::engine::{run_sm, run_sm_reference, EngineCfg};
use tawa::sim::run::wave_setup;
use tawa::sim::Device;
use tawa::wsir::analyze::analyze_reference;
use tawa::wsir::{
    analyze, analyze_with_budget, validate, BarId, Count, CtaClass, Instr, Kernel, MmaDtype, Role,
    DEFAULT_ANALYSIS_FUEL,
};
use tawa::CompileSession;

fn dev() -> Device {
    Device::h100_sxm5()
}

/// Engine events of one kernel: (fast-forwarding, plain).
#[derive(Debug, Clone, Copy, Default)]
struct Events {
    fast: u64,
    plain: u64,
}

impl std::ops::AddAssign for Events {
    fn add_assign(&mut self, o: Events) {
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
            events += Events {
                fast: f.events,
                plain: p.events,
            };
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
            // What the guided sweep actually simulated.
            if p.tflops.is_some() {
                guided += events;
            }
        }
    }
    assert!(guided.plain > 0);
    assert!(
        guided.fast * 5 <= guided.plain,
        "the five guided sweeps must need ≥ 5× fewer engine events: {guided:?}"
    );
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
}
