//! Fig. 11: the aref-size (D) × MMA-depth (P) heatmaps for persistent and
//! non-persistent GEMM at `K = 16384` — the hyperparameter study of §V-E.
//! Infeasible points (`D < P`) report zero, as in the paper.
//!
//! Both panels sweep the same input module, so the whole figure runs over
//! one [`CompileSession`]: the cleanup prefix is cleaned once and the 18
//! candidate kernels compile through the shared content-addressed cache.

use gpu_sim::Device;
use tawa_core::autotune::{autotune_with_session, TuneSpace};
use tawa_core::{CompileOptions, CompileSession};
use tawa_frontend::config::{GemmConfig, Tile};
use tawa_frontend::kernels::gemm;

use crate::report::Scale;

/// One heatmap: `values[d-1][p-1]` in TFLOP/s; 0.0 marks infeasible.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Panel name.
    pub title: String,
    /// Row-major `D × P` grid.
    pub values: [[f64; 3]; 3],
}

impl Heatmap {
    /// Renders the heatmap as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "### {}\n| Aref size D \\ MMA depth P | 1 | 2 | 3 |\n|---|---|---|---|\n",
            self.title
        );
        for (di, row) in self.values.iter().enumerate() {
            out.push_str(&format!(
                "| D={} | {:.0} | {:.0} | {:.0} |\n",
                di + 1,
                row[0],
                row[1],
                row[2]
            ));
        }
        out
    }

    /// The best (D, P) cell.
    pub fn argmax(&self) -> (usize, usize, f64) {
        let mut best = (1, 1, 0.0);
        for (di, row) in self.values.iter().enumerate() {
            for (pi, &v) in row.iter().enumerate() {
                if v > best.2 {
                    best = (di + 1, pi + 1, v);
                }
            }
        }
        best
    }
}

/// Runs one panel (persistent or not) over a caller-provided session.
pub fn run_panel_with_session(session: &CompileSession, persistent: bool, scale: Scale) -> Heatmap {
    let k = match scale {
        Scale::Quick => 4096,
        Scale::Full => 16384,
    };
    let cfg = GemmConfig::new(8192, 8192, k).with_tile(Tile::LARGE);
    let (module, spec) = gemm(&cfg).into_parts();
    let base = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let result = autotune_with_session(
        session,
        &module,
        &spec,
        &base,
        &TuneSpace::fig11(persistent),
    );
    let mut values = [[0.0; 3]; 3];
    for p in &result.points {
        values[p.aref_depth - 1][p.mma_depth - 1] = p.tflops.unwrap_or(0.0);
    }
    Heatmap {
        title: format!(
            "Fig. 11: {} GEMM (K={k})",
            if persistent {
                "Persistent"
            } else {
                "Non-Persistent"
            }
        ),
        values,
    }
}

/// Both panels over a caller-provided session. With a disk-backed session
/// (`CompileSession::with_disk_cache`, or `TAWA_DISK_CACHE` in the
/// environment) a regenerated figure reuses the kernels, the persisted
/// simulation reports and the infeasibility verdicts of every previous
/// run — it replays without compiling or simulating anything.
pub fn run_with_session(session: &CompileSession, scale: Scale) -> Vec<Heatmap> {
    vec![
        run_panel_with_session(session, false, scale),
        run_panel_with_session(session, true, scale),
    ]
}

/// Both panels, sharing one compile session (disk-backed when
/// `TAWA_DISK_CACHE` is set — see [`tawa_core::session::DISK_CACHE_ENV`]).
/// Kept only for the frozen `benchmark/`; it retires with ROADMAP 1(c).
pub fn run(device: &Device, scale: Scale) -> Vec<Heatmap> {
    run_with_session(&CompileSession::new(device), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_share_one_session_prefix() {
        let dev = Device::h100_sxm5();
        let session = CompileSession::in_memory(&dev);
        run_panel_with_session(&session, false, Scale::Quick);
        run_panel_with_session(&session, true, Scale::Quick);
        let stats = session.cache_stats();
        assert_eq!(
            stats.module_entries, 1,
            "both panels sweep the same module; cleanup must run once"
        );
        assert!(stats.kernel_misses > 0);
    }

    #[test]
    fn regenerating_the_figure_from_a_warm_disk_cache_skips_compiles() {
        let dir =
            std::env::temp_dir().join(format!("tawa-fig11-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dev = Device::h100_sxm5();

        let cold = CompileSession::in_memory(&dev)
            .with_disk_cache(&dir)
            .unwrap();
        let cold_maps = run_with_session(&cold, Scale::Quick);
        assert!(cold.cache_stats().disk.writes > 0);

        // A fresh session over the same directory simulates regenerating
        // the figure in a new process: every feasible point is served
        // straight from the persisted simulation reports (never touching
        // the compiler OR the simulator), every infeasible point from a
        // negative entry — zero compiles, zero simulations.
        let warm = CompileSession::in_memory(&dev)
            .with_disk_cache(&dir)
            .unwrap();
        let warm_maps = run_with_session(&warm, Scale::Quick);
        let stats = warm.cache_stats();
        assert!(stats.disk.sim_hits > 0, "{stats:?}");
        assert!(stats.disk.negative_hits > 0, "{stats:?}");
        assert_eq!(stats.kernel_misses, 0, "{stats:?}");
        assert_eq!(stats.sim_misses, 0, "{stats:?}");
        for (c, w) in cold_maps.iter().zip(&warm_maps) {
            assert_eq!(c.values, w.values, "warm figure must be identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heatmap_shape_matches_paper() {
        let dev = Device::h100_sxm5();
        let maps = run_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
        for map in &maps {
            // Infeasible upper triangle (D < P) is zero.
            assert_eq!(map.values[0][1], 0.0);
            assert_eq!(map.values[0][2], 0.0);
            assert_eq!(map.values[1][2], 0.0);
            // Performance increases with D at fixed P=1.
            assert!(map.values[1][0] > map.values[0][0]);
            assert!(map.values[2][0] >= map.values[1][0] * 0.95);
        }
        // Persistent beats non-persistent at the best cell.
        let (_, _, best_np) = maps[0].argmax();
        let (_, _, best_p) = maps[1].argmax();
        assert!(best_p > best_np, "persistent {best_p} vs {best_np}");
    }
}
