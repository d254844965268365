//! Result containers and table rendering for the figure harnesses.

use std::fmt::Write as _;

/// How exhaustively to sweep (tests use `Quick`; `all_figures` uses `Full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few representative points per sweep.
    Quick,
    /// The paper's full parameter grid.
    Full,
}

/// One framework's line in a figure: `(x, TFLOP/s)` points, `None` where
/// the framework cannot run the configuration.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, Option<f64>)>,
}

/// A rendered figure: several series over a common x-axis.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title (e.g. `Fig. 8: GEMM FP16`).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Series, in legend order.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.label);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "| {} |", fmt_x(*x));
            for s in &self.series {
                match s.points.get(i).and_then(|p| p.1) {
                    Some(v) => {
                        let _ = write!(out, " {v:.0} |");
                    }
                    None => {
                        let _ = write!(out, " — |");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders CSV (`x,label1,label2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.label);
        }
        let _ = writeln!(out);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{}", fmt_x(*x));
            for s in &self.series {
                match s.points.get(i).and_then(|p| p.1) {
                    Some(v) => {
                        let _ = write!(out, ",{v:.1}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Geometric-mean speedup of series `a` over series `b` across points
    /// where both ran.
    pub fn geomean_speedup(&self, a: &str, b: &str) -> Option<f64> {
        let sa = self.series.iter().find(|s| s.label == a)?;
        let sb = self.series.iter().find(|s| s.label == b)?;
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for (pa, pb) in sa.points.iter().zip(sb.points.iter()) {
            if let (Some(x), Some(y)) = (pa.1, pb.1) {
                if y > 0.0 {
                    log_sum += (x / y).ln();
                    n += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some((log_sum / n as f64).exp())
        }
    }
}

fn fmt_x(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

/// One-line summary of a session's disk-cache activity, or `None` when no
/// disk cache is attached (`all_figures` prints it after all five
/// figures, which share its one session).
pub fn disk_cache_summary(session: &tawa_core::CompileSession) -> Option<String> {
    let disk = session.disk_cache()?;
    let d = session.cache_stats().disk;
    Some(format!(
        "disk cache {}: {} kernel hits, {} negative hits, {} sim hits, \
         {} sim failure hits, {} writes, {} invalidations, {} evictions, \
         {} entries ({} bytes)",
        disk.root().display(),
        d.hits,
        d.negative_hits,
        d.sim_hits,
        d.sim_negative_hits,
        d.writes,
        d.invalidations,
        d.evictions,
        d.entries,
        d.bytes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            title: "T".into(),
            x_label: "K".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![(256.0, Some(100.0)), (512.0, Some(200.0))],
                },
                Series {
                    label: "b".into(),
                    points: vec![(256.0, Some(50.0)), (512.0, None)],
                },
            ],
        }
    }

    #[test]
    fn markdown_renders_missing_points() {
        let s = fig().to_markdown();
        assert!(s.contains("| K | a | b |"), "{s}");
        assert!(s.contains("| 256 | 100 | 50 |"), "{s}");
        assert!(s.contains("| 512 | 200 | — |"), "{s}");
    }

    #[test]
    fn csv_renders() {
        let s = fig().to_csv();
        assert!(s.starts_with("K,a,b\n"), "{s}");
        assert!(s.contains("512,200.0,\n"), "{s}");
    }

    #[test]
    fn geomean_ignores_missing() {
        let f = fig();
        let g = f.geomean_speedup("a", "b").unwrap();
        assert!((g - 2.0).abs() < 1e-9, "{g}");
        assert!(f.geomean_speedup("a", "zzz").is_none());
    }
}
