//! Runs the complete evaluation (§V) at the paper's full scale: every
//! table of Figs. 8–12 with the summaries quoted in the text — the Fig. 8
//! speedups, the Fig. 10 FA3 ratios and speedups, and the best Fig. 11
//! cell of each heatmap.
//!
//! `--csv` renders the Fig. 8–10 panels as CSV instead of Markdown.
//! Set `TAWA_DISK_CACHE=<dir>` to persist kernels and simulation reports
//! across invocations: a rerun serves them from disk, and the last line
//! reports the hit counts of the one session Figs. 11–12 share.

use std::fmt::Write as _;
use std::io::{ErrorKind, Write as _};

use gpu_sim::Device;
use tawa_bench::report::disk_cache_summary;
use tawa_bench::{fig10, fig11, fig12, fig8, fig9, Figure, Scale};
use tawa_core::CompileSession;

fn main() {
    let csv = std::env::args().skip(1).any(|a| a == "--csv");
    let report = evaluation(csv);
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(report.as_bytes())
        .and_then(|()| stdout.flush())
    {
        // A closed pipe (`all_figures | head`) is the reader's choice.
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("all_figures: {e}");
            std::process::exit(1);
        }
    }
}

/// The whole report, Markdown except for the Fig. 8–10 panels under `csv`.
fn evaluation(csv: bool) -> String {
    let scale = Scale::Full;
    let device = Device::h100_sxm5();
    let panel = |fig: &Figure| {
        if csv {
            fig.to_csv()
        } else {
            fig.to_markdown()
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "# Tawa reproduction — full evaluation\n");
    let _ = writeln!(out, "Device: {} | scale: {scale:?}\n", device.name);

    for fig in fig8::run(&device, scale) {
        let _ = writeln!(out, "{}", panel(&fig));
        let _ = writeln!(out, "Average Tawa speedups ({}):", fig.title);
        for other in ["cuBLAS", "Triton", "TileLang", "ThunderKittens"] {
            if let Some(s) = fig.geomean_speedup("Tawa", other) {
                let _ = writeln!(out, "  vs {other}: {s:.2}x");
            }
        }
        let _ = writeln!(out);
    }
    for fig in fig9::run(&device, scale) {
        let _ = writeln!(out, "{}", panel(&fig));
    }
    for fig in fig10::run(&device, scale) {
        let _ = writeln!(out, "{}", panel(&fig));
        if let Some(ratio) = fig.geomean_speedup("Tawa", "FA3 (CUTLASS)") {
            let _ = writeln!(
                out,
                "Tawa reaches {:.0}% of FA3 ({})",
                ratio * 100.0,
                fig.title
            );
        }
        for other in ["Triton", "TileLang", "ThunderKittens"] {
            if let Some(s) = fig.geomean_speedup("Tawa", other) {
                let _ = writeln!(out, "  speedup vs {other}: {s:.2}x");
            }
        }
        let _ = writeln!(out);
    }

    let session = CompileSession::new(&device);
    for map in fig11::run_with_session(&session, scale) {
        let (d, p, v) = map.argmax();
        let _ = writeln!(out, "{}", map.to_markdown());
        let _ = writeln!(out, "best: D={d}, P={p} at {v:.0} TFLOP/s\n");
    }
    for abl in fig12::run_with_session(&session, scale) {
        let _ = writeln!(out, "{}", abl.to_markdown());
    }
    if let Some(summary) = disk_cache_summary(&session) {
        let _ = writeln!(out, "{summary}");
    }
    out
}
