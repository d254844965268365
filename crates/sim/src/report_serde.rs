//! Stable, versioned serialization of simulation reports.
//!
//! This is the on-disk exchange format behind the persistent
//! simulation-report cache tier in `tawa-core`: a [`SimReport`] is written
//! as a self-describing text document and read back **bit-for-bit** equal
//! (`deserialize ∘ serialize = id`, property-tested in
//! `tests/proptest_report_serde.rs` over synthetic reports — NaN
//! payloads, signed zeros, pathological names — and over real simulator
//! output in the workspace e2e suite).
//!
//! ## Format
//!
//! A line-oriented text document on the shared toolkit
//! ([`tawa_wsir::doc`]: lexical rules, header and version policy, the
//! [`DocError`] type). After the `sim-report <version>` header come
//! exactly two body lines:
//!
//! ```text
//! sim-report 1
//! report "gemm" total_time_us=0x40C81C8000000000 kernel_time_us=0x40C5E10000000000 \
//!        tflops=0x4082C00000000000 tc_utilization=0x3FEB851EB851EB85 occupancy=2 \
//!        waves=31 cycles=1234567 bytes_loaded=68719476736 bytes_stored=33554432 \
//!        tc_flops=549755813888
//! wave cycles=39825 tc_busy=36211 cuda_busy=0 mem_busy=30904 bytes_loaded=16777216 \
//!      bytes_stored=8192 tc_flops=134217728 stall_barrier=812 stall_wgmma=44 \
//!      stall_cpasync=0 stall_sync=0
//! ```
//!
//! (Shown wrapped; each is one physical line.) The `report` line carries
//! every launch-level field of [`SimReport`] (`REPORT_FIELDS`); the `wave`
//! line carries the representative per-wave [`EngineStats`]
//! (`WAVE_FIELDS`). Each table is the one list its line's writer and
//! reader walk.
//!
//! ## Version policy
//!
//! [`REPORT_FORMAT_VERSION`] covers the **syntax** of this document and is
//! bumped whenever a field is added, renamed or re-encoded; readers reject
//! other versions with [`DocError::VersionMismatch`], which caches treat
//! as a miss.
//!
//! The **meaning** of a report — whether a stored document still describes
//! what the simulator would produce today — is governed separately by
//! [`crate::COST_MODEL_VERSION`]: persistent caches key report entries by
//! it, so refining the engine's timing model invalidates stale reports
//! without touching this format (or any cached kernels).

use tawa_wsir::doc::{Doc, DocError, Table, Writer};
use tawa_wsir::field_table;

use crate::engine::EngineStats;
use crate::run::SimReport;

/// Header keyword of a serialized report.
const FORMAT: &str = "sim-report";

/// Current version of the report serialization format. Readers accept
/// exactly this version; see the module docs for the bump policy.
pub const REPORT_FORMAT_VERSION: u32 = 1;

/// The `report` line after the quoted kernel name.
const REPORT_FIELDS: &Table<SimReport> = &field_table!(SimReport {
    total_time_us: F64,
    kernel_time_us: F64,
    tflops: F64,
    tc_utilization: F64,
    occupancy: U32,
    waves: U64,
    cycles: U64,
    bytes_loaded: U64,
    bytes_stored: U64,
    tc_flops: U64,
});

/// The `wave` line.
const WAVE_FIELDS: &Table<EngineStats> = &field_table!(EngineStats {
    cycles: U64,
    tc_busy: U64,
    cuda_busy: U64,
    mem_busy: U64,
    bytes_loaded: U64,
    bytes_stored: U64,
    tc_flops: U64,
    stall_barrier: U64,
    stall_wgmma: U64,
    stall_cpasync: U64,
    stall_sync: U64,
});

/// Serializes a report to the versioned text format (see module docs).
pub fn serialize_report(r: &SimReport) -> String {
    let mut w = Writer::open(FORMAT, REPORT_FORMAT_VERSION);
    w.line("report")
        .quoted(&r.kernel)
        .fields(REPORT_FIELDS, r)
        .end();
    w.line("wave").fields(WAVE_FIELDS, &r.wave_stats).end();
    w.finish()
}

/// Deserializes a report from the versioned text format.
///
/// # Errors
/// [`DocError::VersionMismatch`] when the header names a different
/// format version; [`DocError::Malformed`] for any structural problem
/// (truncation, corruption, trailing junk). Callers that use this behind
/// a cache must treat both as a miss, not a failure.
pub fn deserialize_report(text: &str) -> Result<SimReport, DocError> {
    let mut doc = Doc::open(text, FORMAT, REPORT_FORMAT_VERSION)?;
    let report_line = doc.line("report")?;
    let wave_line = doc.line("wave")?;
    doc.finish()?;
    Ok(SimReport {
        kernel: report_line.name("kernel name")?,
        wave_stats: wave_line.read(WAVE_FIELDS)?,
        ..report_line.read(REPORT_FIELDS)?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        SimReport {
            kernel: "gemm \"edge\\case\"\nname".to_string(),
            total_time_us: 123.456,
            kernel_time_us: 118.25,
            tflops: 612.75,
            tc_utilization: 0.861,
            occupancy: 2,
            waves: 31,
            cycles: 1_234_567,
            bytes_loaded: 68_719_476_736,
            bytes_stored: 33_554_432,
            tc_flops: 549_755_813_888,
            wave_stats: EngineStats {
                cycles: 39_825,
                tc_busy: 36_211,
                cuda_busy: 17,
                mem_busy: 30_904,
                bytes_loaded: 16_777_216,
                bytes_stored: 8_192,
                tc_flops: 134_217_728,
                stall_barrier: 812,
                stall_wgmma: 44,
                stall_cpasync: 3,
                stall_sync: 1,
            },
        }
    }

    #[test]
    fn round_trips_every_field() {
        let r = sample_report();
        let text = serialize_report(&r);
        let back = deserialize_report(&text).unwrap();
        assert_eq!(r, back);
        // The format is stable: re-serializing is a fixpoint.
        assert_eq!(text, serialize_report(&back));
    }

    #[test]
    fn round_trips_exotic_floats_bit_exactly() {
        for bits in [
            0u64,
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::NAN.to_bits() | 0xDEAD, // payload NaN
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            1.0f64.to_bits(),
        ] {
            let mut r = sample_report();
            r.tflops = f64::from_bits(bits);
            r.tc_utilization = f64::from_bits(bits.rotate_left(13));
            let back = deserialize_report(&serialize_report(&r)).unwrap();
            assert_eq!(r.tflops.to_bits(), back.tflops.to_bits());
            assert_eq!(r.tc_utilization.to_bits(), back.tc_utilization.to_bits());
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let text = serialize_report(&sample_report());
        let bumped = text.replacen(
            &format!("sim-report {REPORT_FORMAT_VERSION}"),
            &format!("sim-report {}", REPORT_FORMAT_VERSION + 1),
            1,
        );
        match deserialize_report(&bumped) {
            Err(DocError::VersionMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, REPORT_FORMAT_VERSION + 1);
                assert_eq!(expected, REPORT_FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_malformed_not_panic() {
        let text = serialize_report(&sample_report());
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                let _ = deserialize_report(&text[..cut]);
            }
        }
        assert!(deserialize_report("").is_err());
        assert!(deserialize_report("garbage").is_err());
        assert!(deserialize_report("sim-report 1\nreport oops\n").is_err());
        assert!(deserialize_report(&format!("{text}trailing junk\n")).is_err());
        // A missing field is malformed, not a default.
        let missing = text.replacen("waves=31", "ondes=31", 1);
        assert!(deserialize_report(&missing).is_err());
    }
}
