//! The persisted and spoken text documents, end to end over the one
//! toolkit (`tawa::wsir::doc`).
//!
//! 1. **Nothing persisted moves.** The documents below were captured by
//!    running the commit *before* the toolkit existed; this build must
//!    write the same bytes and read them back.
//! 2. **Nothing taken from outside panics.** Every reader — `wsir 1`,
//!    `sim-report 1`, `trace 1`, `fleet-report 3`, the cache's verdict
//!    lines, the daemon's `stats` line — returns for
//!    arbitrary strings and for every single-byte mutation and truncation
//!    of a valid document, and whatever it accepts re-serializes to a
//!    document that reads back the same.
//! 3. **A missing field is malformed, not a default**, by name, on every
//!    line of every format; floats travel bit-exactly.

use std::fmt::Debug;

use proptest::prelude::*;

use tawa::core::cache::{decode_sim_outcome, encode_sim_outcome};
use tawa::core::remote::DaemonStats;
use tawa::core::{CompileOptions, CompileSession};
use tawa::frontend::config::{AttentionConfig, GemmConfig};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::frontend::GroupedGemmConfig;
use tawa::ir::types::DType;
use tawa::kernels::templates::{ws_attention, ws_gemm, AttentionStrategy, GemmStrategy};
use tawa::serve::{
    deserialize_fleet_report, deserialize_trace, generate, serialize_fleet_report, serialize_trace,
    FleetAccounting, FleetReport, Phase, PhaseStats, TraceParams,
};
use tawa::sim::{deserialize_report, serialize_report, Device};
use tawa::wsir::doc::tokenize;
use tawa::wsir::serialize::MAX_LOOP_DEPTH;
use tawa::wsir::{deserialize_kernel, serialize_kernel, DocError, Instr};

/// `serialize_kernel` of the zoo GEMM (512³, default options), as the parent wrote it.
const GEMM_WSIR: &str = r#"wsir 1
kernel "matmul" persistent=false smem_bytes=98336 launch_overhead_ns=5500 useful_flops=0x41B0000000000000
class multiplicity=16 params=[]
barrier "full0_0" arrive_count=2 init_phases=0
barrier "empty0_0" arrive_count=1 init_phases=1
barrier "full0_1" arrive_count=2 init_phases=0
barrier "empty0_1" arrive_count=1 init_phases=1
warp_group role=producer regs_per_thread=24 {
  setmaxnreg regs=24
  cuda.op flops=544 sfu=0 label="producer-prologue"
  loop 4 {
    cuda.op flops=160 sfu=0 label="addr-gen"
    mbar.wait bar=1
    tma.load bytes=16384 bar=0
    tma.load bytes=16384 bar=0
    cuda.op flops=160 sfu=0 label="addr-gen"
    mbar.wait bar=3
    tma.load bytes=16384 bar=2
    tma.load bytes=16384 bar=2
  }
}
warp_group role=consumer regs_per_thread=176 {
  cuda.op flops=8 sfu=0 label="consumer-prologue"
  mbar.wait bar=0
  wgmma.issue m=128 n=128 k=64 dtype=f16
  loop 3 {
    mbar.wait bar=2
    wgmma.issue m=128 n=128 k=64 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=1
    mbar.wait bar=0
    wgmma.issue m=128 n=128 k=64 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=3
  }
  loop 1 {
    mbar.wait bar=2
    wgmma.issue m=128 n=128 k=64 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=1
  }
  wgmma.wait pending=0
  mbar.arrive bar=3
  cuda.op flops=41216 sfu=0 label="epilogue"
  tma.store bytes=32768
}
"#;

/// `serialize_kernel` of causal zoo attention (L = 1024, `cooperative: 2`), as the parent wrote it.
const ATTENTION_WSIR: &str = r#"wsir 1
kernel "mha_fwd" persistent=false smem_bytes=196680 launch_overhead_ns=5500 useful_flops=0x4222000000000000
class multiplicity=128 params=[0,1,0,0,1,0]
class multiplicity=128 params=[1,0,0,1,0,1]
class multiplicity=128 params=[1,1,1,0,1,0]
class multiplicity=128 params=[2,0,1,1,0,1]
class multiplicity=128 params=[2,1,2,0,1,0]
class multiplicity=128 params=[3,0,2,1,0,1]
class multiplicity=128 params=[3,1,3,0,1,0]
class multiplicity=128 params=[4,0,3,1,0,1]
barrier "full0_0" arrive_count=1 init_phases=0
barrier "empty0_0" arrive_count=2 init_phases=1
barrier "full0_1" arrive_count=1 init_phases=0
barrier "empty0_1" arrive_count=2 init_phases=1
barrier "full1_0" arrive_count=1 init_phases=0
barrier "empty1_0" arrive_count=2 init_phases=1
barrier "full1_1" arrive_count=1 init_phases=0
barrier "empty1_1" arrive_count=2 init_phases=1
barrier "sync0" arrive_count=1 init_phases=0
warp_group role=producer regs_per_thread=24 {
  setmaxnreg regs=24
  cuda.op flops=544 sfu=0 label="producer-prologue"
  loop $p0 {
    cuda.op flops=160 sfu=0 label="addr-gen"
    mbar.wait bar=1
    tma.load bytes=32768 bar=0
    mbar.wait bar=5
    tma.load bytes=32768 bar=4
    cuda.op flops=160 sfu=0 label="addr-gen"
    mbar.wait bar=3
    tma.load bytes=32768 bar=2
    mbar.wait bar=7
    tma.load bytes=32768 bar=6
  }
  loop $p1 {
    cuda.op flops=160 sfu=0 label="addr-gen"
    mbar.wait bar=1
    tma.load bytes=32768 bar=0
    mbar.wait bar=5
    tma.load bytes=32768 bar=4
  }
}
warp_group role=consumer regs_per_thread=176 {
  tma.load bytes=32768 bar=8
  mbar.wait bar=8
  cuda.op flops=4 sfu=0 label="consumer-prologue"
  mbar.wait bar=0
  wgmma.issue m=64 n=128 k=128 dtype=f16
  wgmma.wait pending=0
  mbar.arrive bar=1
  cuda.op flops=61824 sfu=8256 label="softmax"
  loop $p2 {
    mbar.wait bar=4
    wgmma.issue m=64 n=128 k=128 dtype=f16
    mbar.wait bar=2
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=5
    wgmma.wait pending=0
    mbar.arrive bar=3
    cuda.op flops=61824 sfu=8256 label="softmax"
    mbar.wait bar=6
    wgmma.issue m=64 n=128 k=128 dtype=f16
    mbar.wait bar=0
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=7
    wgmma.wait pending=0
    mbar.arrive bar=1
    cuda.op flops=61824 sfu=8256 label="softmax"
  }
  loop $p3 {
    mbar.wait bar=4
    wgmma.issue m=64 n=128 k=128 dtype=f16
    mbar.wait bar=2
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=5
    wgmma.wait pending=0
    mbar.arrive bar=3
    cuda.op flops=61824 sfu=8256 label="softmax"
  }
  loop $p4 {
    mbar.wait bar=4
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=0
    mbar.arrive bar=5
  }
  loop $p5 {
    mbar.wait bar=6
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=0
    mbar.arrive bar=7
  }
  cuda.op flops=36929 sfu=0 label="epilogue"
  tma.store bytes=16384
}
warp_group role=consumer regs_per_thread=176 {
  tma.load bytes=32768 bar=8
  mbar.wait bar=8
  cuda.op flops=4 sfu=0 label="consumer-prologue"
  mbar.wait bar=0
  wgmma.issue m=64 n=128 k=128 dtype=f16
  wgmma.wait pending=0
  mbar.arrive bar=1
  cuda.op flops=61824 sfu=8256 label="softmax"
  loop $p2 {
    mbar.wait bar=4
    wgmma.issue m=64 n=128 k=128 dtype=f16
    mbar.wait bar=2
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=5
    wgmma.wait pending=0
    mbar.arrive bar=3
    cuda.op flops=61824 sfu=8256 label="softmax"
    mbar.wait bar=6
    wgmma.issue m=64 n=128 k=128 dtype=f16
    mbar.wait bar=0
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=7
    wgmma.wait pending=0
    mbar.arrive bar=1
    cuda.op flops=61824 sfu=8256 label="softmax"
  }
  loop $p3 {
    mbar.wait bar=4
    wgmma.issue m=64 n=128 k=128 dtype=f16
    mbar.wait bar=2
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=1
    mbar.arrive bar=5
    wgmma.wait pending=0
    mbar.arrive bar=3
    cuda.op flops=61824 sfu=8256 label="softmax"
  }
  loop $p4 {
    mbar.wait bar=4
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=0
    mbar.arrive bar=5
  }
  loop $p5 {
    mbar.wait bar=6
    wgmma.issue m=64 n=128 k=128 dtype=f16
    wgmma.wait pending=0
    mbar.arrive bar=7
  }
  cuda.op flops=36929 sfu=0 label="epilogue"
  tma.store bytes=16384
}
"#;

/// `serialize_report` of that GEMM's simulation, as the parent wrote it.
const GEMM_SIM_REPORT: &str = r#"sim-report 1
report "matmul" total_time_us=0x4027BA6BA6BA6BA7 kernel_time_us=0x401974D74D74D74E tflops=0x4036A037FCC0E611 tc_utilization=0x3FE68DC967361D91 occupancy=2 waves=1 cycles=11169 bytes_loaded=4194304 bytes_stored=524288 tc_flops=268435456
wave cycles=11169 tc_busy=7872 cuda_busy=345 mem_busy=4646 bytes_loaded=524288 bytes_stored=65536 tc_flops=33554432 stall_barrier=30312 stall_wgmma=1340 stall_cpasync=0 stall_sync=0
"#;

/// `serialize_trace(&generate(&TraceParams::quick("pin", 3, 8)))`, as the parent wrote it.
const QUICK_TRACE: &str = r#"trace 1
trace "pin" seed=3 mix_prefill=0x3FD999999999999A mix_decode=0x3FD999999999999A mix_moe=0x3FC999999999999A
request prefill m=2048 n=2048 k=2048 batch=1 dtype=f16 tile_m=128 tile_n=256 tile_k=64
request prefill m=4096 n=4096 k=4096 batch=1 dtype=f16 tile_m=128 tile_n=256 tile_k=64
request prefill m=4096 n=4096 k=4096 batch=1 dtype=f16 tile_m=128 tile_n=256 tile_k=64
request moe n=4096 k=4096 dtype=f16 tile_m=128 tile_n=256 tile_k=64 groups=512,1024
request decode batch=4 heads=32 seq_len=1024 head_dim=128 causal=true dtype=f16 block_m=128 block_n=128
request prefill m=4096 n=4096 k=4096 batch=1 dtype=f16 tile_m=128 tile_n=256 tile_k=64
request moe n=4096 k=4096 dtype=f16 tile_m=128 tile_n=256 tile_k=64 groups=512,1024
request prefill m=4096 n=4096 k=4096 batch=1 dtype=f16 tile_m=128 tile_n=256 tile_k=64
"#;

/// `serialize_fleet_report(&pinned_fleet_report())`, as the parent wrote it.
const FLEET_REPORT: &str = r#"fleet-report 3
fleet "pin \"fleet\"\tname" seed=17 requests=6
phase prefill requests=4 p50_us=0x405E200000000000 p95_us=0x4072C40000000000 p99_us=0x4072DC0000000000 total_flops=0x427D1A94A2000000 total_time_us=0x408A400000000000 tflops=0x40A299E79E79E79F
phase moe requests=2 p50_us=0x4056800000000000 p95_us=0x4056C00000000000 p99_us=0x7FF0000000000000 total_flops=0x425D1A94A2000000 total_time_us=0x4066A00000000000 tflops=0x7FF8000000000000
perf-lint "occupancy-capped" count=2
perf-lint "single-buffered-pipeline" count=4
accounting compiles=12 simulate_calls=9 compiles_per_1k=0x409F400000000000 simulate_calls_per_1k=0x4097700000000000 kernel_hits=30 sim_hits=28 disk_kernel_hits=3 disk_negative_hits=1 disk_sim_hits=2 disk_sim_negative_hits=5 disk_static_rejections=6 analytic_pruned=7 static_rejections=1 remote_kernel_hits=5 remote_negative_hits=1 remote_sim_hits=4 remote_sim_negative_hits=8 remote_misses=6 remote_puts=8 remote_errors=10 remote_roundtrips=24
"#;

/// `pinned_fleet_report().to_json()`, as the parent wrote it (compared modulo whitespace).
const FLEET_JSON: &str = r#"{
  "name": "pin \"fleet\"\tname",
  "seed": 17,
  "requests": 6,
  "phases": {
    "prefill": {"requests": 4, "p50_us": 120.5, "p95_us": 300.25, "p99_us": 301.75, "total_flops": 2000000000000, "total_time_us": 840, "tflops": 2380.952380952381},
    "moe": {"requests": 2, "p50_us": 90, "p95_us": 91, "p99_us": null, "total_flops": 500000000000, "total_time_us": 181, "tflops": null}
  },
  "perf_lints": {
    "occupancy-capped": 2,
    "single-buffered-pipeline": 4
  },
  "accounting": {"compiles": 12, "simulate_calls": 9, "compiles_per_1k": 2000, "simulate_calls_per_1k": 1500, "kernel_hits": 30, "sim_hits": 28, "disk_kernel_hits": 3, "disk_negative_hits": 1, "disk_sim_hits": 2, "disk_sim_negative_hits": 5, "disk_static_rejections": 6, "analytic_pruned": 7, "static_rejections": 1, "remote_kernel_hits": 5, "remote_negative_hits": 1, "remote_sim_hits": 4, "remote_sim_negative_hits": 8, "remote_misses": 6, "remote_puts": 8, "remote_errors": 10, "remote_roundtrips": 24}
}
"#;

/// `pinned_daemon_stats().to_line()`, as the parent wrote it.
const STATS_LINE: &str = r#"stats entries=12 bytes=34567 hits=8 misses=3 writes=12 negative_hits=1 sim_hits=6 sim_negative_hits=2 invalidations=1 evictions=4 sweep_log_errors=1 connections=9 requests=40 errors=2"#;

/// A small `wsir 1` document with every section and instruction kind,
/// quotes in a name and a nested loop — the sample the mutation sweep
/// works on (the zoo kernels above are several kilobytes each).
const SMALL_WSIR: &str = r#"wsir 1
kernel "gemm \"edge\\case\"" persistent=true smem_bytes=233472 launch_overhead_ns=5500 useful_flops=0x4275D3EF79800000
class multiplicity=100 params=[4,8]
class multiplicity=28 params=[]
barrier "full[0]" arrive_count=2 init_phases=0
barrier "empty[0]" arrive_count=1 init_phases=1
warp_group role=producer regs_per_thread=24 {
  setmaxnreg regs=24
  loop $p0 {
    mbar.wait bar=1
    tma.load bytes=16384 bar=0
  }
  tma.store bytes=8192
}
warp_group role=consumer regs_per_thread=240 {
  loop 8 {
    loop 2 {
      mbar.wait bar=0
      wgmma.issue m=64 n=128 k=16 dtype=f16
    }
    wgmma.wait pending=1
    cuda.op flops=128 sfu=32 label="soft max"
    mbar.arrive bar=1
  }
  cp.async bytes=2048
  cp.async.wait pending=0
  ld.global bytes=64
  st.global bytes=64
  bar.sync
  delay cycles=12
}
"#;

fn pinned_fleet_report() -> FleetReport {
    FleetReport {
        name: "pin \"fleet\"\tname".to_string(),
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
                p99_us: f64::INFINITY,
                total_flops: 5.0e11,
                total_time_us: 181.0,
                tflops: f64::NAN,
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
            disk_sim_negative_hits: 5,
            disk_static_rejections: 6,
            analytic_pruned: 7,
            static_rejections: 1,
            remote_kernel_hits: 5,
            remote_negative_hits: 1,
            remote_sim_hits: 4,
            remote_sim_negative_hits: 8,
            remote_misses: 6,
            remote_puts: 8,
            remote_errors: 10,
            remote_roundtrips: 24,
        },
    }
}

fn pinned_daemon_stats() -> DaemonStats {
    DaemonStats {
        entries: 12,
        bytes: 34_567,
        hits: 8,
        misses: 3,
        writes: 12,
        negative_hits: 1,
        sim_hits: 6,
        sim_negative_hits: 2,
        invalidations: 1,
        evictions: 4,
        sweep_log_errors: 1,
        connections: 9,
        requests: 40,
        errors: 2,
    }
}

/// `json` with the whitespace between tokens removed: what a JSON parser
/// sees. Layout may change; keys, nesting, order and value spellings may
/// not.
fn json_tokens(json: &str) -> String {
    let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
    for c in json.chars() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c.is_whitespace() {
            continue;
        } else {
            in_string = c == '"';
        }
        out.push(c);
    }
    out
}

#[test]
fn documents_the_parent_wrote_are_read_and_rewritten_byte_for_byte() {
    for pin in [GEMM_WSIR, ATTENTION_WSIR, SMALL_WSIR] {
        let kernel = deserialize_kernel(pin).unwrap();
        assert!(!kernel.warp_groups.is_empty());
        // Indentation aside (`SMALL_WSIR` is hand-indented like the writer).
        assert_eq!(serialize_kernel(&kernel), pin);
    }
    let report = deserialize_report(GEMM_SIM_REPORT).unwrap();
    assert_eq!(report.kernel, "matmul");
    assert_eq!(serialize_report(&report), GEMM_SIM_REPORT);

    let trace = generate(&TraceParams::quick("pin", 3, 8));
    assert_eq!(serialize_trace(&trace), QUICK_TRACE);
    assert_eq!(deserialize_trace(QUICK_TRACE).unwrap(), trace);

    let fleet = pinned_fleet_report();
    assert_eq!(serialize_fleet_report(&fleet), FLEET_REPORT);
    let reread = deserialize_fleet_report(FLEET_REPORT).unwrap();
    assert_eq!(serialize_fleet_report(&reread), FLEET_REPORT);
    assert_eq!(json_tokens(&fleet.to_json()), json_tokens(FLEET_JSON));

    let stats = pinned_daemon_stats();
    assert_eq!(stats.to_line(), STATS_LINE);
    assert_eq!(DaemonStats::parse(STATS_LINE), Some(stats));
}

#[test]
fn error_messages_read_as_the_four_error_types_did() {
    let display = |e: DocError| e.to_string();
    assert_eq!(
        display(deserialize_kernel("wsir 2\n").unwrap_err()),
        "wsir format version mismatch: document is v2, reader speaks v1"
    );
    assert_eq!(
        display(
            deserialize_kernel(
                "wsir 1\nkernel \"t\" persistent=maybe smem_bytes=0 launch_overhead_ns=0 \
                 useful_flops=0x0\n"
            )
            .unwrap_err()
        ),
        "malformed wsir document at line 2: field 'persistent' is not a boolean: 'maybe'"
    );
    assert_eq!(
        display(deserialize_report("sim-report 2\n").unwrap_err()),
        "sim-report format version mismatch: document is v2, reader speaks v1"
    );
    assert_eq!(
        display(deserialize_report(&GEMM_SIM_REPORT.replacen("waves=", "ondes=", 1)).unwrap_err()),
        "malformed sim-report document at line 2: missing field 'waves'"
    );
    assert_eq!(
        display(deserialize_trace("trace 2\n").unwrap_err()),
        "trace format version mismatch: document is v2, reader speaks v1"
    );
    let meta = "trace 1\ntrace \"t\" seed=1 mix_prefill=0x0 mix_decode=0x0 mix_moe=0x0\n";
    assert_eq!(
        display(deserialize_trace(&format!("{meta}request lunch\n")).unwrap_err()),
        "malformed trace document at line 3: unknown request phase 'lunch'"
    );
    assert_eq!(
        display(deserialize_fleet_report("fleet-report 9\n").unwrap_err()),
        "fleet-report format version mismatch: document is v9, reader speaks v3"
    );
    assert_eq!(
        display(
            deserialize_fleet_report(
                "fleet-report 3\nfleet \"t\" seed=1 requests=0\nmystery field=1\n"
            )
            .unwrap_err()
        ),
        "malformed fleet-report document at line 3: unexpected line kind 'mystery'"
    );
    // The header and end-of-input messages every format shares.
    assert_eq!(
        display(deserialize_kernel("").unwrap_err()),
        "malformed wsir document at line 0: empty document"
    );
    assert_eq!(
        display(deserialize_kernel("wsir one\n").unwrap_err()),
        "malformed wsir document at line 1: missing 'wsir <version>' header"
    );
    // An authored MoE request without groups serializes as `groups=`; the
    // reader names that instead of a bad integer.
    let no_groups = "request moe n=1 k=1 dtype=f16 tile_m=1 tile_n=1 tile_k=1 groups=\n";
    assert_eq!(
        display(deserialize_trace(&format!("{meta}{no_groups}")).unwrap_err()),
        "malformed trace document at line 3: moe request with no groups"
    );
}

/// Runs `read` over `text`; when it accepts, the value must re-serialize
/// to a document that reads back to the same bytes.
fn accepts_only_what_round_trips<T, E: Debug>(
    text: &str,
    read: impl Fn(&str) -> Result<T, E>,
    write: impl Fn(&T) -> String,
) {
    if let Ok(value) = read(text) {
        let again = write(&value);
        match read(&again) {
            Ok(reread) => assert_eq!(write(&reread), again, "accepted {text:?}"),
            Err(e) => panic!("accepted {text:?} but rejected its own rewrite {again:?}: {e:?}"),
        }
    }
}

/// One reader that takes outside bytes: `(name, valid sample, check)`. A
/// check panics only when its reader panics or accepts a document that
/// does not round-trip.
type Reader = (&'static str, String, Box<dyn Fn(&str)>);

/// Every such reader.
fn readers() -> Vec<Reader> {
    let sim_error = "sim-error \"deadlock: [cta0 wg1 BlockedBar(0) since 42]\"\n";
    let static_error = "static-error \"static deadlock: wg0 waits on bar0 \\\"full\\\"\"\n";
    let outcome = |text: &str| {
        accepts_only_what_round_trips(
            text,
            |t| decode_sim_outcome(t).ok_or(()),
            encode_sim_outcome,
        )
    };
    vec![
        (
            "wsir",
            SMALL_WSIR.to_string(),
            Box::new(|t| accepts_only_what_round_trips(t, deserialize_kernel, serialize_kernel)),
        ),
        (
            "sim-report",
            GEMM_SIM_REPORT.to_string(),
            Box::new(|t| accepts_only_what_round_trips(t, deserialize_report, serialize_report)),
        ),
        (
            "trace",
            QUICK_TRACE.to_string(),
            Box::new(|t| accepts_only_what_round_trips(t, deserialize_trace, serialize_trace)),
        ),
        (
            "fleet-report",
            FLEET_REPORT.to_string(),
            Box::new(|t| {
                accepts_only_what_round_trips(t, deserialize_fleet_report, serialize_fleet_report)
            }),
        ),
        (
            "sim-outcome/report",
            GEMM_SIM_REPORT.to_string(),
            Box::new(outcome),
        ),
        (
            "sim-outcome/sim-error",
            sim_error.to_string(),
            Box::new(outcome),
        ),
        (
            "sim-outcome/static-error",
            static_error.to_string(),
            Box::new(outcome),
        ),
        (
            "stats",
            STATS_LINE.to_string(),
            Box::new(|t| {
                accepts_only_what_round_trips(
                    t,
                    |t| DaemonStats::parse(t).ok_or(()),
                    DaemonStats::to_line,
                )
            }),
        ),
    ]
}

/// Bytes a corrupted or hostile document is likely to carry.
const HOSTILE_BYTES: &[u8] = b"\"\\ \n=0{}x\t";

/// Calls `check` on every prefix of `valid` and on every single-byte
/// delete, insert (of each hostile byte) and bit flip. Readers take
/// `&str` — the disk tier and the wire both refuse non-UTF-8 before
/// parsing — so mutants that are not UTF-8 are skipped.
fn for_each_mutant(valid: &str, check: &dyn Fn(&str)) {
    let bytes = valid.as_bytes();
    let try_bytes = |mutant: &[u8]| {
        if let Ok(text) = std::str::from_utf8(mutant) {
            check(text);
        }
    };
    for cut in 0..bytes.len() {
        try_bytes(&bytes[..cut]);
    }
    for i in 0..bytes.len() {
        let mut deleted = bytes.to_vec();
        deleted.remove(i);
        try_bytes(&deleted);
        for &hostile in HOSTILE_BYTES {
            let mut inserted = bytes.to_vec();
            inserted.insert(i, hostile);
            try_bytes(&inserted);
        }
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            try_bytes(&flipped);
        }
    }
}

#[test]
fn no_reader_panics_on_a_mutated_document_and_accepted_mutants_round_trip() {
    for (name, valid, check) in readers() {
        // The sample itself is valid, so the sweep starts from an accept.
        check(&valid);
        eprintln!("{name}: sweeping the mutants of {} bytes", valid.len());
        for_each_mutant(&valid, &*check);
    }
}

/// Fragments of every grammar plus lexical troublemakers: random
/// concatenations get past headers and deep into the line parsers far
/// more often than random characters would.
fn fragments() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("wsir 1\n"),
        Just("sim-report 1\n"),
        Just("trace 1\n"),
        Just("fleet-report 3\n"),
        Just("kernel \"k\" persistent=true smem_bytes=1 launch_overhead_ns=2 useful_flops=0x0\n"),
        Just("warp_group role=producer regs_per_thread=24 {\n"),
        Just("loop 2 {\n"),
        Just("loop $p0 {\n"),
        Just("}\n"),
        Just("tma.load bytes=1 bar=0\n"),
        Just("cuda.op flops=1 sfu=1 label=\"l\"\n"),
        Just("class multiplicity=1 params=[1,2]\n"),
        Just("barrier \"b\" arrive_count=1 init_phases=0\n"),
        Just("trace \"t\" seed=1 mix_prefill=0x0 mix_decode=0x0 mix_moe=0x0\n"),
        Just("request moe n=1 k=1 dtype=f16 tile_m=1 tile_n=1 tile_k=1 groups=1,2\n"),
        Just("request prefill m=1 n=1 k=1 batch=1 dtype=f16 tile_m=1 tile_n=1 tile_k=1\n"),
        Just("fleet \"f\" seed=1 requests=2\n"),
        Just("perf-lint \"id\" count=1\n"),
        Just("sim-error \"m\"\n"),
        Just("static-error "),
        Just("stats entries=1 bytes=2"),
        Just("report "),
        Just("wave "),
        Just("phase moe "),
        Just("accounting "),
        Just("cycles=18446744073709551616 "),
        Just("tflops=0x7FF8000000000DEAD "),
        Just("\""),
        Just("\\"),
        Just("="),
        Just(" "),
        Just("\n"),
        Just("\t"),
        Just("\u{a0}"),
        Just("\u{3000}"),
        Just("é"),
        Just("0"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_reader_panics_on_arbitrary_text(pieces in prop::collection::vec(fragments(), 0..12)) {
        let text = pieces.concat();
        for (_, _, check) in readers() {
            check(&text);
        }
    }
}

/// Removes each `key=value` field of each body line of `doc` in turn and
/// asserts `read` answers `Malformed` at that line, naming that field.
fn assert_every_field_is_required(doc: &str, read: &dyn Fn(&str) -> Option<DocError>) {
    assert_eq!(read(doc), None, "the sample must be valid");
    let lines: Vec<&str> = doc.lines().collect();
    let mut removed = 0;
    for (i, line) in lines.iter().enumerate().skip(1) {
        for token in tokenize("test", 0, line).unwrap() {
            let Some((key, _)) = token.split_once('=').filter(|_| !token.starts_with('"')) else {
                continue;
            };
            let mut mutant = lines.clone();
            let without = line.replacen(&format!(" {token}"), "", 1);
            mutant[i] = &without;
            match read(&(mutant.join("\n") + "\n")) {
                Some(DocError::Malformed { line, msg, .. }) => {
                    assert_eq!((line, msg), (i + 1, format!("missing field '{key}'")));
                }
                other => panic!("line {}: removing {token:?} gave {other:?}", i + 1),
            }
            removed += 1;
        }
    }
    assert!(removed > 0);
}

#[test]
fn a_missing_field_is_malformed_by_name_never_a_default() {
    assert_every_field_is_required(SMALL_WSIR, &|t| deserialize_kernel(t).err());
    assert_every_field_is_required(GEMM_SIM_REPORT, &|t| deserialize_report(t).err());
    assert_every_field_is_required(QUICK_TRACE, &|t| deserialize_trace(t).err());
    assert_every_field_is_required(FLEET_REPORT, &|t| deserialize_fleet_report(t).err());
    // The `stats` line reads into an `Option`: any field gone is `None`.
    for token in STATS_LINE.split(' ').skip(1) {
        let without = STATS_LINE.replacen(&format!(" {token}"), "", 1);
        assert_eq!(DaemonStats::parse(&without), None, "{token}");
    }
}

#[test]
fn tabled_records_carry_exotic_floats_bit_exactly() {
    let exotic = [
        f64::NAN.to_bits() | 0xDEAD,
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
    ];
    for bits in exotic {
        let v = f64::from_bits(bits);
        let encoded = format!("=0x{bits:016X}");

        let mut report = deserialize_report(GEMM_SIM_REPORT).unwrap();
        (report.total_time_us, report.kernel_time_us) = (v, v);
        (report.tflops, report.tc_utilization) = (v, v);
        let text = serialize_report(&report);
        assert_eq!(text.matches(&encoded).count(), 4);
        assert_eq!(serialize_report(&deserialize_report(&text).unwrap()), text);

        let mut fleet = pinned_fleet_report();
        fleet.phases.truncate(1);
        let p = &mut fleet.phases[0];
        (p.p50_us, p.p95_us, p.p99_us) = (v, v, v);
        (p.total_flops, p.total_time_us, p.tflops) = (v, v, v);
        fleet.accounting.compiles_per_1k = v;
        fleet.accounting.simulate_calls_per_1k = v;
        let text = serialize_fleet_report(&fleet);
        assert_eq!(text.matches(&encoded).count(), 8);
        let reread = deserialize_fleet_report(&text).unwrap();
        assert_eq!(serialize_fleet_report(&reread), text);
        assert_eq!(reread.phases[0].tflops.to_bits(), bits);
        // JSON has no spelling for them: `null`, except the signed zero.
        let nulls = if v.is_finite() { 0 } else { 8 };
        assert_eq!(reread.to_json().matches("null").count(), nulls);
    }
}

fn loop_depth(instrs: &[Instr]) -> usize {
    instrs
        .iter()
        .map(|i| match i {
            Instr::Loop { body, .. } => 1 + loop_depth(body),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn the_compiler_nests_loops_far_below_the_reader_bound() {
    // `MAX_LOOP_DEPTH` must never reject real output of `lower.rs` or
    // `templates.rs`: every zoo family and both expert templates,
    // persistent (one more loop around everything) where that lowers.
    let device = Device::h100_sxm5();
    let session = CompileSession::in_memory(&device);
    let gemm_cfg = GemmConfig::new(1024, 1024, 512);
    let attention_cfg = AttentionConfig::paper(1024, true, DType::F16);
    let programs = [
        gemm(&gemm_cfg),
        batched_gemm(&GemmConfig::new(1024, 1024, 1024).with_batch(2)),
        grouped_gemm(&GroupedGemmConfig::paper_sweep(2)),
        attention(&attention_cfg),
    ];
    let mut kernels = Vec::new();
    for persistent in [false, true] {
        let opts = CompileOptions {
            cooperative: 2,
            persistent,
            ..CompileOptions::default()
        };
        kernels.extend(
            programs
                .iter()
                .filter_map(|p| session.compile_program(p, &opts).ok())
                .map(|k| (*k).clone()),
        );
        let strategy = GemmStrategy {
            coop: 2,
            d: 3,
            p: 2,
            persistent,
            launch_ns: 5_500,
            iter_bubble: 0.0,
        };
        kernels.push(ws_gemm(&gemm_cfg, &strategy, &device).unwrap());
    }
    let strategy = AttentionStrategy {
        coop: 2,
        d: 2,
        overlap: true,
        softmax_exposure: 1.0,
        launch_ns: 5_500,
        iter_bubble: 0.0,
    };
    kernels.push(ws_attention(&attention_cfg, &strategy, &device).unwrap());
    assert!(kernels.len() >= 10, "{} kernels compiled", kernels.len());
    let deepest = kernels
        .iter()
        .flat_map(|k| &k.warp_groups)
        .map(|wg| loop_depth(&wg.body))
        .max()
        .unwrap_or(0);
    // Two at the time of writing: a persistent tile loop around a K loop.
    assert!(
        (1..=MAX_LOOP_DEPTH / 8).contains(&deepest),
        "deepest nest: {deepest}"
    );
}
