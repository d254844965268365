//! Fleet-level replay reports: per-phase latency/throughput aggregates
//! plus cache-outcome accounting, with a versioned text serialization
//! and a JSON rendering for CI.
//!
//! A [`FleetReport`] has two sections with different determinism
//! strength (see the [`crate::replay`] module docs):
//!
//! - **`phases`** — workload aggregates (latency percentiles,
//!   TFLOP/s-weighted throughput). A pure function of the trace and the
//!   device: bit-identical across *any* two replays of equal traces,
//!   cold or warm.
//! - **`accounting`** — what the replay cost the session (compiles,
//!   simulate calls, per-tier cache hits). Identical between two equally
//!   warm replays; a cold and a warm replay differ here and only here.
//!
//! ## Format
//!
//! A line-oriented text document on the shared toolkit
//! ([`tawa_wsir::doc`]: lexical rules, header and version policy, the
//! [`DocError`] type): header `fleet-report <version>`, then one `fleet`
//! metadata line, one `phase` line per phase that saw traffic (in
//! [`Phase::ALL`] order), one `perf-lint` line per lint id tripped, and
//! last one `accounting` line. Floats travel as IEEE-754 bit patterns so
//! "bit-identical report" is checkable with `diff`. `PHASE_FIELDS` and
//! `ACCOUNTING_FIELDS` are the one list each record's text writer, reader
//! and JSON rendering walk.

use std::fmt::Write as _;

use tawa_core::CacheStats;
use tawa_wsir::doc::{json_block, json_object, json_string, Doc, DocError, Table, Writer};
use tawa_wsir::field_table;

use crate::replay::RequestOutcome;
use crate::trace::Phase;

/// Header keyword of a serialized fleet report.
const FORMAT: &str = "fleet-report";

/// Current version of the fleet-report serialization format.
///
/// v2 added the remote-tier accounting fields (`remote_*`) alongside
/// the `tawa-cached` fleet cache. v3 added the `perf-lint` lines: one
/// per perf-lint id the replayed kernels tripped, carrying the
/// request-weighted count.
pub const FLEET_REPORT_FORMAT_VERSION: u32 = 3;

/// Latency/throughput aggregates of one serving phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// The phase the aggregates cover.
    pub phase: Phase,
    /// Requests replayed in this phase.
    pub requests: u64,
    /// Median simulated end-to-end latency, microseconds (nearest-rank).
    pub p50_us: f64,
    /// 95th-percentile simulated latency, microseconds (nearest-rank).
    pub p95_us: f64,
    /// 99th-percentile simulated latency, microseconds (nearest-rank).
    pub p99_us: f64,
    /// Useful FLOPs summed over the phase's requests.
    pub total_flops: f64,
    /// Simulated time summed over the phase's requests, microseconds.
    pub total_time_us: f64,
    /// FLOP-weighted phase throughput in TFLOP/s:
    /// `total_flops / total_time` — the aggregate a fleet would observe
    /// serving this phase back-to-back, not a mean of per-request rates.
    pub tflops: f64,
}

/// The `phase` line after the phase name, and the phase's JSON object.
const PHASE_FIELDS: &Table<PhaseStats> = &field_table!(PhaseStats {
    requests: U64,
    p50_us: F64,
    p95_us: F64,
    p99_us: F64,
    total_flops: F64,
    total_time_us: F64,
    tflops: F64,
});

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl PhaseStats {
    /// Aggregates request outcomes into per-phase stats, in
    /// [`Phase::ALL`] order, skipping phases with no traffic. Sums run in
    /// arrival order on one thread, so equal outcome sequences produce
    /// bit-identical aggregates.
    pub fn aggregate(outcomes: &[RequestOutcome]) -> Vec<PhaseStats> {
        Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let mut latencies = Vec::new();
                let (mut flops, mut time_us) = (0.0_f64, 0.0_f64);
                for o in outcomes.iter().filter(|o| o.phase == phase) {
                    latencies.push(o.latency_us);
                    flops += o.flops;
                    time_us += o.latency_us;
                }
                if latencies.is_empty() {
                    return None;
                }
                let requests = latencies.len() as u64;
                latencies.sort_by(f64::total_cmp);
                Some(PhaseStats {
                    phase,
                    requests,
                    p50_us: percentile(&latencies, 0.50),
                    p95_us: percentile(&latencies, 0.95),
                    p99_us: percentile(&latencies, 0.99),
                    total_flops: flops,
                    total_time_us: time_us,
                    tflops: flops / (time_us * 1e-6) / 1e12,
                })
            })
            .collect()
    }
}

/// What the replay cost the session: compiles, simulator runs and cache
/// tier hits, summed from the session's [`CacheStats::delta`] across the
/// replay. All-zero `compiles` and `simulate_calls` is the warm-replay
/// signature the e2e tests and the CI serve-smoke step assert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetAccounting {
    /// Cold kernel compiles (in-memory *and* disk missed).
    pub compiles: u64,
    /// Simulator runs issued.
    pub simulate_calls: u64,
    /// Compiles per thousand requests.
    pub compiles_per_1k: f64,
    /// Simulator runs per thousand requests.
    pub simulate_calls_per_1k: f64,
    /// In-memory kernel-cache hits.
    pub kernel_hits: u64,
    /// In-memory simulation-report hits.
    pub sim_hits: u64,
    /// Kernels served from the disk tier.
    pub disk_kernel_hits: u64,
    /// Infeasibility verdicts served from the disk tier.
    pub disk_negative_hits: u64,
    /// Simulation reports served from the disk tier.
    pub disk_sim_hits: u64,
    /// Simulation-failure verdicts served from the disk tier.
    pub disk_sim_negative_hits: u64,
    /// Static-analysis rejection verdicts served from the disk tier.
    pub disk_static_rejections: u64,
    /// Autotune candidates pruned by the analytic model (simulator runs
    /// avoided).
    pub analytic_pruned: u64,
    /// Kernels rejected by the static barrier-protocol analyzer.
    pub static_rejections: u64,
    /// Kernels served from the remote `tawa-cached` tier.
    pub remote_kernel_hits: u64,
    /// Infeasibility verdicts served from the remote tier.
    pub remote_negative_hits: u64,
    /// Simulation reports served from the remote tier.
    pub remote_sim_hits: u64,
    /// Simulation-failure / static-rejection verdicts served from the
    /// remote tier.
    pub remote_sim_negative_hits: u64,
    /// Remote lookups the daemon answered `miss`.
    pub remote_misses: u64,
    /// Entries the replay published to the daemon.
    pub remote_puts: u64,
    /// Remote-tier failures absorbed by the local fallback.
    pub remote_errors: u64,
    /// Remote round trips attempted during the replay.
    pub remote_roundtrips: u64,
}

/// The `accounting` line, and the accounting JSON object.
const ACCOUNTING_FIELDS: &Table<FleetAccounting> = &field_table!(FleetAccounting {
    compiles: U64,
    simulate_calls: U64,
    compiles_per_1k: F64,
    simulate_calls_per_1k: F64,
    kernel_hits: U64,
    sim_hits: U64,
    disk_kernel_hits: U64,
    disk_negative_hits: U64,
    disk_sim_hits: U64,
    disk_sim_negative_hits: U64,
    disk_static_rejections: U64,
    analytic_pruned: U64,
    static_rejections: U64,
    remote_kernel_hits: U64,
    remote_negative_hits: U64,
    remote_sim_hits: U64,
    remote_sim_negative_hits: U64,
    remote_misses: U64,
    remote_puts: U64,
    remote_errors: U64,
    remote_roundtrips: U64,
});

impl FleetAccounting {
    /// Builds the accounting section from a replay-wide cache-stats delta
    /// over `requests` requests.
    pub fn from_stats(requests: u64, delta: &CacheStats) -> FleetAccounting {
        let per_1k = |n: u64| {
            if requests == 0 {
                0.0
            } else {
                n as f64 * 1000.0 / requests as f64
            }
        };
        FleetAccounting {
            compiles: delta.kernel_misses,
            simulate_calls: delta.sim_misses,
            compiles_per_1k: per_1k(delta.kernel_misses),
            simulate_calls_per_1k: per_1k(delta.sim_misses),
            kernel_hits: delta.kernel_hits,
            sim_hits: delta.sim_hits,
            disk_kernel_hits: delta.disk.hits,
            disk_negative_hits: delta.disk.negative_hits,
            disk_sim_hits: delta.disk.sim_hits,
            disk_sim_negative_hits: delta.disk.sim_negative_hits,
            disk_static_rejections: delta.disk.static_rejections,
            analytic_pruned: delta.analytic_pruned,
            static_rejections: delta.static_rejections,
            remote_kernel_hits: delta.remote.kernel_hits,
            remote_negative_hits: delta.remote.negative_hits,
            remote_sim_hits: delta.remote.sim_hits,
            remote_sim_negative_hits: delta.remote.sim_negative_hits,
            remote_misses: delta.remote.misses,
            remote_puts: delta.remote.puts,
            remote_errors: delta.remote.errors,
            remote_roundtrips: delta.remote.roundtrips,
        }
    }
}

/// The replay result: workload aggregates per phase plus session
/// accounting. See the module docs for which parts are bit-identical
/// when.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Name of the replayed trace.
    pub name: String,
    /// Seed of the replayed trace (provenance).
    pub seed: u64,
    /// Total requests replayed.
    pub requests: u64,
    /// Per-phase aggregates, [`Phase::ALL`] order, traffic-bearing
    /// phases only.
    pub phases: Vec<PhaseStats>,
    /// Per-perf-lint-id counts over the replayed requests, id-sorted:
    /// `("single-buffered-pipeline", 12)` means requests tripping that
    /// lint were served 12 times. Request-weighted — a lint on a hot
    /// shape counts once per request, which is the fleet's actual
    /// exposure. A pure function of the trace and the device, like the
    /// phase aggregates.
    pub perf_lints: Vec<(String, u64)>,
    /// What the replay cost the session.
    pub accounting: FleetAccounting,
}

impl FleetReport {
    /// Whether the *workload aggregates* of two reports agree bit-for-bit
    /// — the comparison that must hold between a cold and a warm replay
    /// of the same trace, whose accounting legitimately differs.
    pub fn same_workload(&self, other: &FleetReport) -> bool {
        self.name == other.name
            && self.seed == other.seed
            && self.requests == other.requests
            && self.phases == other.phases
            && self.perf_lints == other.perf_lints
    }

    /// Renders the report as a JSON document (hand-rolled: the workspace
    /// carries no serde). Non-finite floats are clamped to `null` —
    /// JSON has no NaN/Inf — so the *bit-exact* interchange form is
    /// [`serialize_fleet_report`], not this.
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| format!("\"{}\": {}", p.phase, json_object(PHASE_FIELDS, p)))
            .collect();
        let lints: Vec<String> = self
            .perf_lints
            .iter()
            .map(|(id, n)| format!("{}: {n}", json_string(id)))
            .collect();
        format!(
            "{{\n  \"name\": {},\n  \"seed\": {},\n  \"requests\": {},\n  \"phases\": {},\n  \
             \"perf_lints\": {},\n  \"accounting\": {}\n}}\n",
            json_string(&self.name),
            self.seed,
            self.requests,
            json_block('{', &phases, '}'),
            json_block('{', &lints, '}'),
            json_object(ACCOUNTING_FIELDS, &self.accounting),
        )
    }

    /// A short human-readable summary (what `tawa-serve run` prints).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet report: trace \"{}\" (seed {}), {} requests",
            self.name, self.seed, self.requests
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<8} {:>5} req  p50 {:>10.2} us  p95 {:>10.2} us  p99 {:>10.2} us  \
                 {:>8.1} TFLOP/s",
                p.phase.name(),
                p.requests,
                p.p50_us,
                p.p95_us,
                p.p99_us,
                p.tflops
            );
        }
        if !self.perf_lints.is_empty() {
            let rendered: Vec<String> = self
                .perf_lints
                .iter()
                .map(|(id, n)| format!("{id}\u{d7}{n}"))
                .collect();
            let _ = writeln!(out, "  perf lints: {}", rendered.join("  "));
        }
        let a = &self.accounting;
        let _ = writeln!(
            out,
            "  compiles {} ({:.1}/1k req)  simulate calls {} ({:.1}/1k req)",
            a.compiles, a.compiles_per_1k, a.simulate_calls, a.simulate_calls_per_1k
        );
        let _ = writeln!(
            out,
            "  hits: kernel {} + sim {} in memory, kernel {} + sim {} + negative {} on disk",
            a.kernel_hits,
            a.sim_hits,
            a.disk_kernel_hits,
            a.disk_sim_hits,
            a.disk_negative_hits + a.disk_sim_negative_hits,
        );
        if a.remote_roundtrips > 0 || a.remote_errors > 0 {
            let _ = writeln!(
                out,
                "  remote: kernel {} + sim {} + negative {} hits, {} puts, {} misses, {} errors \
                 ({} round trips)",
                a.remote_kernel_hits,
                a.remote_sim_hits,
                a.remote_negative_hits + a.remote_sim_negative_hits,
                a.remote_puts,
                a.remote_misses,
                a.remote_errors,
                a.remote_roundtrips,
            );
        }
        out
    }
}

/// Serializes a fleet report to the versioned text format (see module
/// docs). Bit-exact: floats travel as IEEE-754 bit patterns.
pub fn serialize_fleet_report(r: &FleetReport) -> String {
    let mut w = Writer::open(FORMAT, FLEET_REPORT_FORMAT_VERSION);
    w.line("fleet")
        .quoted(&r.name)
        .field("seed", r.seed)
        .field("requests", r.requests)
        .end();
    for p in &r.phases {
        w.line("phase").word(p.phase).fields(PHASE_FIELDS, p).end();
    }
    for (id, n) in &r.perf_lints {
        w.line("perf-lint").quoted(id).field("count", n).end();
    }
    w.line("accounting")
        .fields(ACCOUNTING_FIELDS, &r.accounting)
        .end();
    w.finish()
}

/// Deserializes a fleet report from the versioned text format.
///
/// # Errors
/// [`DocError::VersionMismatch`] when the header names a different
/// format version; [`DocError::Malformed`] for any structural problem.
pub fn deserialize_fleet_report(text: &str) -> Result<FleetReport, DocError> {
    let mut doc = Doc::open(text, FORMAT, FLEET_REPORT_FORMAT_VERSION)?;
    let meta = doc.line("fleet")?;
    let name = meta.name("trace name")?;
    let (seed, requests) = (meta.int("seed")?, meta.int("requests")?);

    let mut phases = Vec::new();
    let mut perf_lints = Vec::new();
    let mut accounting = None;
    while let Some(line) = doc.next_line()? {
        if accounting.is_some() {
            let kind = line.keyword();
            return Err(line.malformed(format!("{kind} line after accounting line")));
        }
        match line.keyword() {
            "perf-lint" => perf_lints.push((line.name("lint id")?, line.int("count")?)),
            "phase" => {
                let &[_, name, ..] = line.tokens() else {
                    return Err(line.malformed("phase line missing phase name"));
                };
                let phase = Phase::parse(name)
                    .ok_or_else(|| line.malformed(format!("unknown phase '{name}'")))?;
                phases.push(PhaseStats {
                    phase,
                    ..line.read(PHASE_FIELDS)?
                });
            }
            "accounting" => accounting = Some(line.read(ACCOUNTING_FIELDS)?),
            other => return Err(line.malformed(format!("unexpected line kind '{other}'"))),
        }
    }
    Ok(FleetReport {
        name,
        seed,
        requests,
        phases,
        perf_lints,
        accounting: accounting.ok_or_else(|| doc.truncated("missing accounting line"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetReport {
        FleetReport {
            name: "unit \"sample\"".to_string(),
            seed: 17,
            requests: 6,
            phases: vec![
                PhaseStats {
                    phase: Phase::Prefill,
                    requests: 4,
                    p50_us: 120.5,
                    p95_us: 300.25,
                    p99_us: 301.75,
                    total_flops: 2.0e12,
                    total_time_us: 840.0,
                    tflops: 2.0e12 / (840.0 * 1e-6) / 1e12,
                },
                PhaseStats {
                    phase: Phase::Moe,
                    requests: 2,
                    p50_us: 90.0,
                    p95_us: 91.0,
                    p99_us: 91.0,
                    total_flops: 5.0e11,
                    total_time_us: 181.0,
                    tflops: 5.0e11 / (181.0 * 1e-6) / 1e12,
                },
            ],
            perf_lints: vec![
                ("occupancy-capped".to_string(), 2),
                ("single-buffered-pipeline".to_string(), 4),
            ],
            accounting: FleetAccounting {
                compiles: 12,
                simulate_calls: 9,
                compiles_per_1k: 2000.0,
                simulate_calls_per_1k: 1500.0,
                kernel_hits: 30,
                sim_hits: 28,
                disk_kernel_hits: 3,
                disk_negative_hits: 1,
                disk_sim_hits: 2,
                disk_sim_negative_hits: 0,
                disk_static_rejections: 0,
                analytic_pruned: 7,
                static_rejections: 1,
                remote_kernel_hits: 5,
                remote_negative_hits: 1,
                remote_sim_hits: 4,
                remote_sim_negative_hits: 0,
                remote_misses: 6,
                remote_puts: 8,
                remote_errors: 0,
                remote_roundtrips: 24,
            },
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let report = sample();
        let text = serialize_fleet_report(&report);
        let back = deserialize_fleet_report(&text).unwrap();
        assert_eq!(report, back);
        assert_eq!(serialize_fleet_report(&back), text);
    }

    #[test]
    fn version_mismatch_is_reported() {
        let text =
            serialize_fleet_report(&sample()).replacen("fleet-report 3", "fleet-report 9", 1);
        assert!(matches!(
            deserialize_fleet_report(&text),
            Err(DocError::VersionMismatch {
                found: 9,
                expected: 3,
                ..
            })
        ));
    }

    #[test]
    fn missing_accounting_and_junk_are_malformed() {
        let full = serialize_fleet_report(&sample());
        let without = full
            .lines()
            .filter(|l| !l.starts_with("accounting"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            deserialize_fleet_report(&without),
            Err(DocError::Malformed { .. })
        ));
        let junk = format!("{full}mystery field=1\n");
        assert!(matches!(
            deserialize_fleet_report(&junk),
            Err(DocError::Malformed { .. })
        ));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.50), 1.0);
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let json = sample().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"unit \\\"sample\\\"\""));
        assert!(json.contains("\"compiles\": 12"));
        assert!(json.contains("\"prefill\""));
        assert!(json.contains("\"single-buffered-pipeline\": 4"));
    }

    #[test]
    fn perf_lint_lines_round_trip_and_participate_in_workload() {
        let report = sample();
        let text = serialize_fleet_report(&report);
        assert!(text.contains("perf-lint \"single-buffered-pipeline\" count=4"));
        let back = deserialize_fleet_report(&text).unwrap();
        assert_eq!(back.perf_lints, report.perf_lints);
        // A report differing only in lint counts is a different workload:
        // the lints are a pure function of the trace and the device.
        let mut other = sample();
        other.perf_lints[0].1 += 1;
        assert!(!report.same_workload(&other));
        // An empty section serializes (and parses back) as no lines.
        let mut clean = sample();
        clean.perf_lints.clear();
        let clean_text = serialize_fleet_report(&clean);
        assert!(!clean_text.contains("perf-lint"));
        assert_eq!(deserialize_fleet_report(&clean_text).unwrap(), clean);
    }

    #[test]
    fn same_workload_ignores_accounting() {
        let a = sample();
        let mut b = sample();
        b.accounting.compiles = 0;
        b.accounting.compiles_per_1k = 0.0;
        assert_ne!(a, b);
        assert!(a.same_workload(&b));
        let mut c = sample();
        c.phases[0].p50_us += 1.0;
        assert!(!a.same_workload(&c));
    }
}
