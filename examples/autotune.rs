//! Scheduling-space exploration: sweep (D, P, cooperation, persistence)
//! for one GEMM and print the Fig. 11-style landscape plus the chosen
//! configuration.
//!
//! The sweep runs over one [`CompileSession`]: candidates batch-compile
//! across threads, every configuration reuses the cached cleanup prefix,
//! and re-running the sweep (as a serving loop would on each traffic
//! shift) is nearly free — the cache statistics at the end show it.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use std::time::Instant;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::CompileOptions;
use tawa::frontend::config::{GemmConfig, Tile};
use tawa::frontend::kernels::gemm;
use tawa::sim::Device;
use tawa::CompileSession;

fn main() {
    let device = Device::h100_sxm5();
    let session = CompileSession::new(&device);
    let cfg = GemmConfig::new(8192, 8192, 16384).with_tile(Tile::LARGE);
    let (module, spec) = gemm(&cfg).into_parts();
    let base = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let space = TuneSpace::default();
    let cold_start = Instant::now();
    let result = autotune_with_session(&session, &module, &spec, &base, &space);
    let cold = cold_start.elapsed();

    println!("GEMM 8192x8192x16384 FP16, tile 128x256x64, 2 consumer WGs\n");
    println!(
        "{:>2} {:>2} {:>5} {:>11} {:>10}",
        "D", "P", "coop", "persistent", "TFLOP/s"
    );
    for p in &result.points {
        match p.tflops {
            Some(t) => println!(
                "{:>2} {:>2} {:>5} {:>11} {:>10.0}",
                p.aref_depth, p.mma_depth, p.cooperative, p.persistent, t
            ),
            None => println!(
                "{:>2} {:>2} {:>5} {:>11} {:>10}",
                p.aref_depth, p.mma_depth, p.cooperative, p.persistent, "infeasible"
            ),
        }
    }
    println!(
        "\nsweep: {} candidates, {} simulate calls, {} infeasible",
        result.stats.candidates, result.stats.simulate_calls, result.stats.infeasible,
    );
    if let Some(best) = result.best_options(&base) {
        println!(
            "\nchosen: D={} P={} coop={} persistent={} → {:.0} TFLOP/s",
            best.aref_depth,
            best.mma_depth,
            best.cooperative,
            best.persistent,
            result.best_tflops().unwrap_or(0.0)
        );
    }

    // A second sweep over the warm session: every point is a cache hit.
    let warm_start = Instant::now();
    let _ = autotune_with_session(&session, &module, &spec, &base, &space);
    let warm = warm_start.elapsed();
    let stats = session.cache_stats();
    println!(
        "\ncold sweep {:.0} ms, warm re-sweep {:.2} ms ({} cache hits, {} misses, \
         {} kernels cached)",
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
        stats.hits(),
        stats.misses(),
        stats.kernel_entries,
    );
}
