//! End-to-end tests of the performance-lint tier: the advisory warnings
//! that explain *why* a safe kernel is slow.
//!
//! The acceptance bar, straight from the tier's contract:
//!
//! * `dead-compute` is *strippable*: a program flagged for a dead `dot`
//!   must simulate bit-identically to the same program with the dead
//!   ops removed (the cleanup pipeline's DCE erases them before
//!   lowering, so the lint is advice about source clutter, not about
//!   the generated kernel);
//! * `single-buffered-pipeline` is *actionable*: the ring depth the
//!   lint reports as admissible must actually beat the single-buffered
//!   configuration in an autotune sweep;
//! * the tier has **zero false positives** over the kernel zoo at tuned
//!   configurations;
//! * `fleet-report 3` round-trips per-lint-id counts exactly;
//! * (property) the analysis is deterministic across runs and every
//!   emitted lint renders its kebab-case id, with IR-tier lints
//!   carrying a DSL `file:line` span.

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::CompileOptions;
use tawa::dsl::elem::{F16, F32};
use tawa::dsl::KernelBuilder;
use tawa::frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::ir::types::DType;
use tawa::serve::{deserialize_fleet_report, generate, replay_trace, serialize_fleet_report};
use tawa::sim::Device;
use tawa::wsir::LintKind;
use tawa::{CompileSession, Program};

fn dev() -> Device {
    Device::h100_sxm5()
}

/// A plain DSL matmul (`C = A·Bᵀ`, zoo-style addressing). With `dead`,
/// a second `dot` over zero tiles is appended whose result is never
/// stored — exactly the clutter `dead-compute` exists to report.
fn matmul_program(m: usize, n: usize, k_dim: usize, dead: bool) -> Program {
    let (mt, nt, kt) = (128usize, 128usize, 64usize);
    let mut k = KernelBuilder::new("perf_demo_matmul");
    let a_desc = k.typed_desc_param::<F16>([m, k_dim]);
    let b_desc = k.typed_desc_param::<F16>([n, k_dim]);
    let c_ptr = k.typed_ptr_param::<F16>([m, n]);
    let n_arg = k.i32_param(n as i64);
    let k_arg = k.i32_param(k_dim as i64);

    let pid = k.program_id(0);
    let c_mt = k.i32(mt as i64);
    let c_nt = k.i32(nt as i64);
    let c_kt = k.i32(kt as i64);
    let m_arg = k.i32_param(m as i64);
    let num_pid_m = k.cdiv(m_arg, c_mt);
    let pid_m = k.rem(pid, num_pid_m);
    let pid_n = k.div(pid, num_pid_m);
    let o_am = k.mul(pid_m, c_mt);
    let o_bn = k.mul(pid_n, c_nt);
    let acc0 = k.zeros::<F32>([mt, nt]);
    let o_k0 = k.i32(0);
    let lo = k.i32(0);
    let hi = k.cdiv(k_arg, c_kt);
    let step = k.i32(1);
    let (acc, _) = k.for_range(lo, hi, step, (acc0, o_k0), |k, _iv, (acc, o_k)| {
        let a = k.tma_load(a_desc, &[o_am, o_k], [mt, kt]);
        let bt = k.tma_load(b_desc, &[o_bn, o_k], [nt, kt]);
        let btt = k.transpose(bt);
        let acc2 = k.dot(a, btt, acc);
        let o_k2 = k.add(o_k, c_kt);
        (acc2, o_k2)
    });

    if dead {
        // Dead compute: a full dot whose result nobody consumes.
        let za = k.zeros::<F16>([mt, kt]);
        let zb = k.zeros::<F16>([kt, nt]);
        let zacc = k.zeros::<F32>([mt, nt]);
        let _unused = k.dot(za, zb, zacc);
    }

    let offs_m = k.arange(0, mt as i64);
    let offs_cm = k.add(offs_m, o_am);
    let em = k.expand_dims(offs_cm, 1);
    let bm = k.broadcast_to(em, [mt, nt]);
    let offs_n = k.arange(0, nt as i64);
    let offs_cn = k.add(offs_n, o_bn);
    let en = k.expand_dims(offs_cn, 0);
    let bn = k.broadcast_to(en, [mt, nt]);
    let n_splat = k.splat(n_arg, [mt, nt]);
    let row_scaled = k.mul(bm, n_splat);
    let offs = k.add(row_scaled, bn);
    let addrs = k.addptr(c_ptr, offs);
    let out = k.cast::<F16, _>(acc);
    k.store(addrs, out);

    let grid = (m.div_ceil(mt) * n.div_ceil(nt)) as u64;
    k.launch_uniform(grid, 2.0 * m as f64 * n as f64 * k_dim as f64);
    k.finish().expect("matmul is well-formed")
}

/// `dead-compute` cross-validated against the simulator: the flagged
/// program and its stripped twin produce bit-identical reports — the
/// dead dot never reaches the lowered kernel, so removing it from the
/// source cannot change the simulation.
#[test]
fn dead_compute_strips_to_a_bit_identical_simulation() {
    let dirty = matmul_program(2048, 2048, 2048, true);
    let clean = matmul_program(2048, 2048, 2048, false);

    let lints = tawa::wsir::analyze_ir(dirty.module());
    let dead: Vec<_> = lints.iter().filter(|l| l.id() == "dead-compute").collect();
    assert_eq!(dead.len(), 1, "exactly the one dead dot: {lints:?}");
    assert!(
        dead[0].loc.is_some(),
        "the lint must carry the DSL span of the dead dot"
    );
    assert!(
        tawa::wsir::analyze_ir(clean.module())
            .iter()
            .all(|l| l.id() != "dead-compute"),
        "the stripped twin is clean"
    );

    let session = CompileSession::in_memory(&dev());
    let opts = CompileOptions::default();
    let a = session
        .compile_and_simulate_program(&dirty, &opts)
        .expect("dirty compiles");
    let b = session
        .compile_and_simulate_program(&clean, &opts)
        .expect("clean compiles");
    assert_eq!(a.cycles, b.cycles, "cycle-identical");
    assert_eq!(a.tflops.to_bits(), b.tflops.to_bits(), "TFLOP/s-identical");
    assert_eq!(a.kernel_time_us.to_bits(), b.kernel_time_us.to_bits());
    assert_eq!(a.total_time_us.to_bits(), b.total_time_us.to_bits());
    assert_eq!(
        (
            a.bytes_loaded,
            a.bytes_stored,
            a.tc_flops,
            a.occupancy,
            a.waves
        ),
        (
            b.bytes_loaded,
            b.bytes_stored,
            b.tc_flops,
            b.occupancy,
            b.waves
        ),
    );
}

/// `single-buffered-pipeline` cross-validated against the simulator:
/// the admissible depth the lint reports must win a sweep over
/// {1, admissible}.
#[test]
fn single_buffered_suggested_depth_wins_the_sweep() {
    let session = CompileSession::in_memory(&dev());
    let program = gemm(&GemmConfig::new(4096, 4096, 4096));
    let single = CompileOptions {
        aref_depth: 1,
        mma_depth: 1,
        ..CompileOptions::default()
    };

    let summary = session
        .perf_summary_program(&program, &single)
        .expect("D=1 compiles");
    let admissible = summary
        .lints
        .iter()
        .find_map(|l| match l.kind {
            LintKind::SingleBufferedPipeline { admissible, .. } => Some(admissible as usize),
            _ => None,
        })
        .expect("D=1 GEMM must be flagged single-buffered-pipeline");
    assert!(admissible >= 2, "suggested depth must deepen the ring");

    let slow = session
        .compile_and_simulate_program(&program, &single)
        .expect("D=1 simulates");

    let space = TuneSpace {
        aref_depths: vec![1, admissible],
        mma_depths: vec![1],
        cooperative: vec![1],
        persistent: vec![false],
    };
    let result = autotune_with_session(
        &session,
        program.module(),
        program.spec(),
        &CompileOptions::default(),
        &space,
    );
    let best = &result.points[result.best.expect("a feasible winner")];
    assert_eq!(
        best.aref_depth, admissible,
        "the suggested depth must be the sweep winner"
    );
    assert!(
        best.tflops.expect("winner simulated") > slow.tflops,
        "suggested depth must beat single-buffered: {:?} vs {}",
        best.tflops,
        slow.tflops
    );
}

/// Zero false positives: the whole zoo at tuned configurations carries
/// no performance lints — the tier only speaks when the analytic model
/// says the flagged structure is actually the bottleneck.
#[test]
fn tuned_zoo_has_zero_perf_lint_false_positives() {
    let session = CompileSession::in_memory(&dev());
    let ws = CompileOptions::default();
    let coop = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let zoo: Vec<(&str, Program, &CompileOptions)> = vec![
        ("gemm", gemm(&GemmConfig::new(4096, 4096, 4096)), &ws),
        (
            "batched-gemm",
            batched_gemm(&GemmConfig::new(2048, 2048, 1024).with_batch(8)),
            &ws,
        ),
        (
            "grouped-gemm",
            grouped_gemm(&GroupedGemmConfig::paper_sweep(8)),
            &ws,
        ),
        (
            "attention",
            attention(&AttentionConfig::paper(4096, false, DType::F16)),
            &coop,
        ),
    ];
    for (name, program, opts) in &zoo {
        let summary = session
            .perf_summary_program(program, opts)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(summary.is_clean(), "{name} false positive(s): {summary}");
    }
}

/// `fleet-report 3` round-trips per-lint-id counts: both the counts a
/// real replay produces and a synthetically doped section survive
/// serialize → deserialize exactly, and the counts participate in the
/// workload-identity check.
#[test]
fn fleet_report_v3_round_trips_per_lint_id_counts() {
    let session = CompileSession::in_memory(&dev());
    let trace = generate(&tawa::TraceParams::quick("e2e-perf-lints", 11, 8));
    let report = replay_trace(&session, &trace).expect("replay");

    let text = serialize_fleet_report(&report);
    assert!(text.starts_with("fleet-report 3\n"), "{text}");
    let rt = deserialize_fleet_report(&text).expect("round-trip");
    assert_eq!(rt.perf_lints, report.perf_lints);
    assert!(rt.same_workload(&report));

    let mut doped = report.clone();
    doped.perf_lints = vec![
        ("occupancy-capped".to_string(), 3),
        ("single-buffered-pipeline".to_string(), 1),
    ];
    let doped_text = serialize_fleet_report(&doped);
    assert!(doped_text.contains("perf-lint \"occupancy-capped\" count=3"));
    let doped_rt = deserialize_fleet_report(&doped_text).expect("doped round-trip");
    assert_eq!(doped_rt.perf_lints, doped.perf_lints);
    assert!(
        !doped_rt.same_workload(&report),
        "differing perf-lint counts are a different workload"
    );
}

/// Every lint the full surface (protocol tier + perf tier) emits for
/// one compiled program, rendered.
fn rendered_lints(program: &Program, opts: &CompileOptions) -> Vec<String> {
    let session = CompileSession::in_memory(&dev());
    let kernel = session
        .compile_program(program, opts)
        .expect("program compiles");
    let mut lints = tawa::wsir::analyze(&kernel);
    lints.extend(
        session
            .perf_summary_program(program, opts)
            .expect("perf summary")
            .lints,
    );
    lints.iter().map(|l| l.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Determinism and renderability over generated DSL programs: two
    /// independent sessions produce the same lint sequence, every lint
    /// Display contains its kebab-case id, and the IR-tier lints carry
    /// a DSL `file:line` span (this file's).
    #[test]
    fn analysis_is_deterministic_and_lints_render_id_and_span(
        mi in 0usize..2,
        ki in 0usize..2,
        depth in 1usize..4,
        dead_n in 0u32..2,
    ) {
        let dead = dead_n == 1;
        let dims = [2048usize, 4096];
        let program = matmul_program(dims[mi], 2048, dims[ki], dead);
        let opts = CompileOptions {
            aref_depth: depth,
            mma_depth: 1,
            ..CompileOptions::default()
        };

        let first = rendered_lints(&program, &opts);
        let second = rendered_lints(&program, &opts);
        prop_assert_eq!(&first, &second, "analysis must be deterministic");

        let session = CompileSession::in_memory(&dev());
        let summary = session.perf_summary_program(&program, &opts).unwrap();
        for lint in &summary.lints {
            let id = lint.id();
            let shown = lint.to_string();
            prop_assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "id must be kebab-case: {}", id
            );
            prop_assert!(shown.contains(id), "{} must contain {}", shown, id);
            let ir_tier = matches!(
                lint.kind,
                LintKind::DeadCompute { .. } | LintKind::UninitializedTileRead { .. }
            );
            if ir_tier {
                prop_assert!(lint.loc.is_some(), "IR-tier lints carry spans: {}", shown);
                prop_assert!(shown.contains(".rs:"), "span must render: {}", shown);
            }
        }
        if dead {
            prop_assert!(
                summary.lints.iter().any(|l| l.id() == "dead-compute"),
                "the injected dead dot must be flagged: {:?}",
                summary.lints
            );
        }
    }
}
