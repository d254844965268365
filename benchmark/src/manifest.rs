//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is generated from these tables (`tawa-bench manifest`), and every
//! run checks that it reports exactly the metrics listed here.

use crate::json::Json;

/// Seconds one run measures for (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2026;

/// A workload and why it is in the benchmark.
pub struct WorkloadSpec {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "cold_short",
        why: "cold compile+simulate of short zoo kernels: compiler-dominated, simulation is a small share, so pass/lowering/analysis work shows and engine work does not",
    },
    WorkloadSpec {
        name: "cold_long",
        why: "cold compile+simulate of long zoo kernels (K>=8192, 64/128 CTA classes): engine-dominated, where simulator work must show and cold_short must not move",
    },
    WorkloadSpec {
        name: "sweep_fig11",
        why: "cold guided autotune sweeps over the Fig. 11 spaces: prefix cache, batch compile, analytic ranking and pruning; compile and simulate share the time",
    },
    WorkloadSpec {
        name: "fleet_cold_writeback",
        why: "llama_mix trace replayed on a fresh session with an empty disk tier and an empty daemon: the write side of the disk cache, the remote client and tawa-cached",
    },
    WorkloadSpec {
        name: "fleet_restart_warm",
        why: "same trace, fresh session per pass over a warm disk directory: the read side of the disk tier and wsir/sim-report decode; compiler and simulator do zero work",
    },
    WorkloadSpec {
        name: "fleet_remote_warm",
        why: "same trace, fresh session per pass, no disk, warm daemon over a Unix socket: the socket read path; paired with fleet_cold_writeback so faster reads with slower puts show",
    },
];

/// A metric's unit and which direction is better.
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, true, 0.0)
}

/// End-to-end metrics: what a user of the system sees. Measured with
/// tracing off, the same names on every workload, never zero.
///
/// Every bound is the contract's maximum. A bound is per metric, not per
/// workload, so it has to hold the noisiest workload: on the reference
/// box (two shared cores, ext4 on a virtual disk) the worst spread between
/// ten runs of one build is 13 % for a timing and 16 % for `setup_s`,
/// even with typical times and calibration (README, "Steadiness").
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_ms_p50", "ms", false, 0.25),
    e2e("op_ms_p90", "ms", false, 0.25),
];

/// Per-layer metrics, measured by the traced run. The first five are
/// end-to-end quantities that cannot sit in [`END_TO_END`]: four are
/// deterministic (they can be zero and compare exactly), and peak memory
/// spreads by up to 23 % between runs of one build on the fleet
/// workloads (allocator arenas of short-lived worker threads), which no
/// admissible bound holds.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("failed_share", "share"),
    higher("sim_tflops", "TFLOP/s"),
    lower("compiles_per_op", "count"),
    lower("sim_runs_per_op", "count"),
    lower("peak_rss_mb", "MB"),
    lower("frontend.dsl_build_us_p50", "us"),
    lower("frontend.module_ops", "count"),
    lower("ir.fingerprint_us_p50", "us"),
    lower("ir.print_us_p50", "us"),
    lower("ir.parse_us_p50", "us"),
    lower("ir.pass.const-fold_us_p50", "us"),
    lower("ir.pass.dce_us_p50", "us"),
    lower("ir.ops_after_cleanup", "count"),
    lower("core.pass.warp-specialize_us_p50", "us"),
    lower("core.pass.fine-grained-pipeline_us_p50", "us"),
    lower("core.pass.coarse-pipeline_us_p50", "us"),
    lower("core.lower.ws_us_p50", "us"),
    lower("core.lower.simt_us_p50", "us"),
    lower("core.lower.wsir_instrs_static", "count"),
    lower("core.session.compile_cold_us_p50", "us"),
    lower("core.session.compile_hit_us_p50", "us"),
    lower("core.session.sim_hit_us_p50", "us"),
    lower("core.session.cache_stats_us_p50", "us"),
    lower("core.session.glue_share", "share"),
    lower("core.autotune.guided_ms_p50", "ms"),
    lower("core.autotune.exhaustive_ms_p50", "ms"),
    lower("core.autotune.guided_sim_runs", "count"),
    lower("core.autotune.exhaustive_sim_runs", "count"),
    higher("core.autotune.analytic_pruned", "count"),
    higher("core.autotune.winner_match_share", "share"),
    lower("core.cache.store_kernel_us_p50", "us"),
    lower("core.cache.load_kernel_us_p50", "us"),
    lower("core.cache.store_sim_us_p50", "us"),
    lower("core.cache.load_sim_us_p50", "us"),
    lower("core.cache.load_miss_us_p50", "us"),
    higher("core.cache.disk_hits_per_op", "count"),
    lower("core.cache.disk_writes_per_op", "count"),
    lower("core.cache.invalidations", "count"),
    lower("core.remote.get_kernel_us_p50", "us"),
    lower("core.remote.put_kernel_us_p50", "us"),
    lower("core.remote.get_sim_us_p50", "us"),
    lower("core.remote.put_sim_us_p50", "us"),
    lower("core.remote.get_miss_us_p50", "us"),
    lower("core.remote.roundtrips_per_op", "count"),
    lower("core.remote.errors", "count"),
    lower("wsir.serialize_us_p50", "us"),
    lower("wsir.deserialize_us_p50", "us"),
    lower("wsir.bytes_per_kernel", "B"),
    lower("wsir.analyze_us_p50", "us"),
    lower("wsir.analyze_perf_us_p50", "us"),
    lower("wsir.analyze.lints_per_kernel", "count"),
    lower("sim.engine.simulate_us_p50", "us"),
    lower("sim.engine.host_ns_per_instr", "ns"),
    higher("sim.engine.sim_cycles_per_host_us", "1/us"),
    higher("sim.engine.parallel_classes_speedup", "x"),
    lower("sim.analytic.estimate_us_p50", "us"),
    lower("sim.analytic.tightness_geomean", "x"),
    lower("sim.analytic.unsound_count", "count"),
    lower("sim.report_serde.encode_us_p50", "us"),
    lower("sim.report_serde.decode_us_p50", "us"),
    higher("sim.model.tc_utilization_geomean", "share"),
    lower("sim.model.stall_barrier_share", "cyc/cyc"),
    lower("sim.model.stall_wgmma_share", "cyc/cyc"),
    lower("kernels.templates.build_us_p50", "us"),
    lower("cached.server.stats_roundtrip_us_p50", "us"),
    lower("cached.server.connections_per_request", "count"),
    lower("cached.server.errors", "count"),
    lower("cached.store.entries", "count"),
    lower("cached.store.bytes", "B"),
    lower("serve.trace.generate_ms", "ms"),
    lower("serve.replay.first_sight_ms_p50", "ms"),
    lower("serve.replay.repeat_us_p50", "us"),
    lower("serve.replay.first_sight_share", "share"),
    higher("bench.fig8.tawa_over_cublas_geomean", "x"),
    higher("bench.fig8.tawa_over_triton_geomean", "x"),
    higher("bench.fig10.tawa_over_triton_geomean", "x"),
    higher("bench.fig10.tawa_over_fa3_geomean", "x"),
    higher("bench.fig11.best_tflops", "TFLOP/s"),
    higher("bench.fig12.gemm_ablation_speedup", "x"),
    higher("bench.fig12.mha_ablation_speedup", "x"),
    lower("trace.overhead_share", "share"),
    lower("calibration_chunk_us", "us"),
];

/// Per-layer metrics that are deterministic: two runs of one build must
/// report the same value, and `diff` compares them exactly. Everything
/// else in [`PER_LAYER`] is a host timing or derived from one.
pub fn is_exact(name: &str) -> bool {
    let timing = name.ends_with("_p50")
        || name.ends_with("_ms")
        || matches!(
            name,
            "core.session.glue_share"
                | "sim.engine.host_ns_per_instr"
                | "sim.engine.sim_cycles_per_host_us"
                | "sim.engine.parallel_classes_speedup"
                | "trace.overhead_share"
                | "serve.replay.first_sight_share"
                | "peak_rss_mb"
                | "calibration_chunk_us"
        );
    !timing && PER_LAYER.iter().any(|m| m.name == name)
}

/// Looks a metric up in either table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn better(spec: &MetricSpec) -> Json {
    Json::str(if spec.higher_is_better {
        "higher"
    } else {
        "lower"
    })
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "tawa-bench",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
            assert!((0.0..=0.25).contains(&m.bound));
        }
        let setup = metric("setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().render_pretty().len() < 64 * 1024);
    }

    #[test]
    fn exactness_split() {
        assert!(is_exact("sim_tflops"));
        assert!(is_exact("core.autotune.guided_sim_runs"));
        assert!(is_exact("bench.fig8.tawa_over_cublas_geomean"));
        assert!(!is_exact("ir.print_us_p50"));
        assert!(!is_exact("serve.trace.generate_ms"));
        assert!(!is_exact("core.session.glue_share"));
        assert!(!is_exact("ops_per_s"));
    }

    /// The committed `BENCHMARK.json` is this table, not a hand-edited copy.
    #[test]
    fn committed_manifest_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            Json::parse(&committed) == Ok(benchmark_json()),
            "BENCHMARK.json is stale: regenerate it with `tawa-bench manifest > BENCHMARK.json`"
        );
    }
}
