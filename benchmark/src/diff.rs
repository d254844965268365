//! `tawa-bench diff A.json B.json`: compares two results files, one row
//! per workload × metric, every ratio printed with its base.
//!
//! Deterministic metrics compare exactly. End-to-end timings compare
//! against the bound recorded in the manifest, and read *unresolved* —
//! not unchanged — when the run-to-run spread is wider than that bound.
//! Per-layer timings have no bound; their rows are informational.

use crate::json::Json;
use crate::manifest::{is_exact, metric};
use crate::stats::Samples;
use crate::suite::RESULTS_SCHEMA;

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deterministic metric, equal in every run of both files.
    Same,
    /// Deterministic metric, not equal.
    Different,
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// Every run of B reads better than every run of A, by more than
    /// A's own spread, with at least five runs a side.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread between runs exceeds the bound: no conclusion.
    Unresolved,
    /// A per-layer timing: no bound to judge by.
    Info,
    /// The metric is missing from B.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Different => "DIFFERENT",
            Verdict::Within => "within-bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether the row fails the comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Different | Verdict::Regressed | Verdict::Missing
        )
    }
}

fn median(values: &[f64]) -> f64 {
    Samples(values.to_vec()).p50()
}

/// (max − min) ÷ median; `None` with fewer than two runs.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some((hi - lo) / median(values).abs())
}

/// Runs each side needs before `improved` is said at all: with fewer, an
/// A/A comparison on a drifting machine reads as a gain. (A gain is
/// *claimed* only by the ten-pair rule of the choosing-metrics guide.)
const MIN_RUNS_TO_CLAIM: usize = 5;

/// Judges one metric from its runs in A and B.
pub fn judge(name: &str, a: &[f64], b: &[f64]) -> Verdict {
    if b.is_empty() {
        return Verdict::Missing;
    }
    if is_exact(name) {
        let first = a.first().copied().unwrap_or(f64::NAN);
        let same = a.iter().chain(b).all(|v| v.to_bits() == first.to_bits());
        return if same {
            Verdict::Same
        } else {
            Verdict::Different
        };
    }
    let Some(spec) = metric(name).filter(|m| m.bound > 0.0) else {
        return Verdict::Info;
    };
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, as a share of A's median.
    let worse_by = if spec.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    let b_beats_a = if spec.higher_is_better {
        b.iter().copied().fold(f64::INFINITY, f64::min)
            > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().copied().fold(f64::INFINITY, f64::min)
    };
    if a.len().min(b.len()) >= MIN_RUNS_TO_CLAIM
        && b_beats_a
        && -worse_by > spread(a).unwrap_or(0.0)
    {
        Verdict::Improved
    } else if widest > spec.bound {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

fn values(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .map_or(&[][..], Json::elements)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
        return Err(format!("{path}: not a '{RESULTS_SCHEMA}' file"));
    }
    Ok(doc)
}

/// Compares two results documents; returns the report and whether any
/// row fails.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let empty = Json::obj::<&str>([]);
    let workloads_a = a.get("workloads").unwrap_or(&empty);
    for (workload, wa) in workloads_a.members() {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        for key in ["correct", "failed"] {
            let (va, vb) = (wa.get(key), wb.and_then(|w| w.get(key)));
            if va != vb {
                failed = true;
                out.push_str(&format!(
                    "{workload:<22} {key:<44} DIFFERENT  A={} B={}\n",
                    va.map_or("-".into(), Json::render),
                    vb.map_or("-".into(), Json::render),
                ));
            }
        }
        for section in ["end_to_end", "per_layer"] {
            let metrics_a = wa.get(section).unwrap_or(&empty);
            for (name, ma) in metrics_a.members() {
                let mb = wb.and_then(|w| w.get(section)).and_then(|s| s.get(name));
                let (va, vb) = (values(ma), mb.map(values).unwrap_or_default());
                let verdict = judge(name, &va, &vb);
                failed |= verdict.fails();
                let (base, new) = (median(&va), median(&vb));
                let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
                let spread_text = |v: &[f64]| {
                    spread(v).map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0))
                };
                out.push_str(&format!(
                    "{workload:<22} {name:<44} {:<12} B/A={:>8.4} (base A={base:.6} {unit}, B={new:.6}; runs {}+{}, spread A {} B {})\n",
                    verdict.label(),
                    new / base,
                    va.len(),
                    vb.len(),
                    spread_text(&va),
                    spread_text(&vb),
                ));
            }
        }
    }
    (out, failed)
}

/// `tawa-bench diff A.json B.json`.
///
/// # Errors
/// Unreadable files, or (after printing every row) a failing row.
pub fn main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: tawa-bench diff A.json B.json".to_string());
    };
    let (report, failed) = compare(&load(a)?, &load(b)?);
    print!("{report}");
    if failed {
        Err(format!("{b} disagrees with {a} beyond the bounds"))
    } else {
        println!(
            "no deterministic metric differs and no end-to-end metric regressed beyond its bound"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        assert_eq!(
            judge("sim_tflops", &[700.5, 700.5], &[700.5]),
            Verdict::Same
        );
        assert_eq!(
            judge("sim_tflops", &[700.5], &[700.500_000_1]),
            Verdict::Different
        );
        assert_eq!(judge("sim_runs_per_op", &[0.0], &[]), Verdict::Missing);
    }

    #[test]
    fn timings_use_the_recorded_bound_and_the_spread() {
        // ops_per_s: higher is better, bound 25 %.
        assert_eq!(judge("ops_per_s", &[1000.0], &[950.0]), Verdict::Within);
        assert_eq!(judge("ops_per_s", &[1000.0], &[700.0]), Verdict::Regressed);
        assert_eq!(
            judge(
                "ops_per_s",
                &[1000.0, 1010.0, 1005.0, 1002.0, 1008.0],
                &[1300.0, 1310.0, 1305.0, 1302.0, 1308.0]
            ),
            Verdict::Improved
        );
        // Too few runs to say so.
        assert_eq!(
            judge("ops_per_s", &[1000.0, 1010.0], &[1300.0, 1310.0]),
            Verdict::Within
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            judge("ops_per_s", &[1000.0, 1500.0], &[900.0, 1400.0]),
            Verdict::Unresolved
        );
        // op_ms_p50: lower is better.
        assert_eq!(judge("op_ms_p50", &[1.0], &[1.3]), Verdict::Regressed);
        assert_eq!(judge("op_ms_p50", &[1.0], &[0.8]), Verdict::Within);
        // Per-layer timings carry no bound.
        assert_eq!(judge("ir.print_us_p50", &[10.0], &[20.0]), Verdict::Info);
    }

    #[test]
    fn compare_reports_one_row_per_metric_and_flags_failures() {
        let doc = |ops: f64, tflops: f64| {
            Json::parse(&format!(
                r#"{{"schema":"{RESULTS_SCHEMA}","workloads":{{"cold_short":{{"correct":true,"failed":0,
                "end_to_end":{{"ops_per_s":{{"unit":"1/s","values":[{ops}]}}}},
                "per_layer":{{"sim_tflops":{{"unit":"TFLOP/s","values":[{tflops}]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (report, failed) = compare(&doc(1000.0, 700.0), &doc(990.0, 700.0));
        assert!(!failed, "{report}");
        assert_eq!(report.lines().count(), 2);
        assert!(report.contains("base A=1000.000000 1/s"));
        assert!(compare(&doc(1000.0, 700.0), &doc(700.0, 700.0)).1);
        assert!(compare(&doc(1000.0, 700.0), &doc(1000.0, 701.0)).1);
    }
}
