//! Quickstart: author a Triton-style GEMM in `tawa::dsl`, let Tawa
//! warp-specialize it, and run it on the simulated H100.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tawa::core::CompileOptions;
use tawa::frontend::config::GemmConfig;
use tawa::frontend::kernels::gemm;
use tawa::ir::print::print_module;
use tawa::sim::Device;
use tawa::CompileSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::h100_sxm5();
    let session = CompileSession::new(&device);

    // 1. A tile-level GEMM authored in `tawa::dsl`, exactly like a Triton
    //    kernel: typed tile handles, no warp-specialization annotations
    //    anywhere. `gemm` returns a Program — the verified module plus
    //    its launch specialization. (Write your own with
    //    `tawa::frontend::dsl::KernelBuilder`; see examples/dsl_custom_kernel.rs
    //    for a kernel that is not in the zoo.)
    let cfg = GemmConfig::new(4096, 4096, 4096);
    let program = gemm(&cfg);
    println!("== Tile IR (DSL frontend output) ==\n");
    println!("{}", print_module(program.module()));

    // 2. Compile with automatic warp specialization (the paper's
    //    enable_warp_specialization=True). Programs are fingerprinted for
    //    the session's memory/disk cache tiers like raw modules.
    let opts = CompileOptions::default();
    println!(
        "== Pass pipeline ==\n\n{}\n",
        CompileSession::pipeline_spec(&opts)?
    );
    let kernel = session.compile_program(&program, &opts)?;
    println!("== Generated warp-specialized WSIR ==\n");
    print!("{}", tawa::wsir::serialize_kernel(&kernel));

    // 3. Simulate through the session, so the report lands in the
    //    session's report cache — and, when `TAWA_DISK_CACHE` is set, in
    //    the persistent `.sim` tier: rerunning this example then skips
    //    the simulator entirely.
    let report = session.compile_and_simulate_program(&program, &opts)?;
    println!("== Simulation ==\n");
    println!(
        "{}: {:.1} TFLOP/s ({:.1}% of FP16 peak), {:.0} µs, {} waves, occupancy {}",
        report.kernel,
        report.tflops,
        100.0 * report.tflops / device.peak_tflops(tawa::wsir::MmaDtype::F16),
        report.total_time_us,
        report.waves,
        report.occupancy
    );

    // 4. Compare against the same kernel without warp specialization.
    let simt = CompileOptions {
        warp_specialize: false,
        ..opts
    };
    let base_report = session.compile_and_simulate_program(&program, &simt)?;
    println!(
        "Triton-style software pipelining: {:.1} TFLOP/s  →  warp specialization wins {:.2}x",
        base_report.tflops,
        report.tflops / base_report.tflops
    );
    Ok(())
}
