//! Compiler internals tour: print the IR after each Tawa pass for an
//! attention kernel — frontend tile IR, after task-aware partitioning,
//! after pipelining — then the final WSIR.
//!
//! ```sh
//! cargo run --release --example inspect_ir
//! ```

use tawa::core::partition::warp_specialize_func;
use tawa::core::session::tawa_pass_registry;
use tawa::core::CompileOptions;
use tawa::frontend::config::AttentionConfig;
use tawa::frontend::kernels::attention;
use tawa::ir::print::print_module;
use tawa::ir::types::DType;
use tawa::sim::Device;
use tawa::{CompileSession, PipelineSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = AttentionConfig::paper(1024, true, DType::F16);
    let program = attention(&cfg);
    let module = program.module();

    println!("========== 1. Frontend tile IR (annotation-free) ==========\n");
    println!("{}", print_module(module));

    // Every op carries the DSL author's source span (outside the printed
    // IR, so fingerprints and cache keys never see it). Show a few.
    let f = &module.funcs[0];
    println!("// source spans (first 5 ops):");
    for op in f.walk().into_iter().take(5) {
        if let Some(loc) = f.loc(op) {
            println!("//   {:<20} <- {loc}", f.op(op).kind.to_string());
        }
    }
    println!();

    let mut ws = module.clone();
    let report = warp_specialize_func(&mut ws.funcs[0], 2).map_err(std::io::Error::other)?;
    println!("========== 2. After task-aware partitioning ==========");
    println!(
        "// producer ops: {}, consumer ops: {}, duplicated: {}, arefs: {}\n",
        report.producer_ops, report.consumer_ops, report.duplicated_ops, report.arefs
    );
    println!("{}", print_module(&ws));

    // The remaining stages as a declarative pipeline: parsed from the
    // spec string, instantiated against the Tawa pass registry.
    let tail = PipelineSpec::parse("fine-grained-pipeline{depth=2},coarse-pipeline,dce")?;
    let mut pm = tail.build(&tawa_pass_registry())?;
    pm.run(&mut ws)?;
    println!("========== 3. After pipelining (pipeline: {tail}) ==========");
    for stat in pm.stats() {
        println!(
            "// pass {:<24} {:>6} µs  changed={}",
            stat.name, stat.micros, stat.changed
        );
    }
    println!();
    println!("{}", print_module(&ws));

    let device = Device::h100_sxm5();
    let opts = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    println!(
        "// full driver pipeline: {}\n",
        CompileSession::pipeline_spec(&opts)?
    );
    let kernel = CompileSession::new(&device).compile_program(&program, &opts)?;
    println!("========== 4. Final warp-specialized WSIR ==========\n");
    print!("{}", tawa::wsir::serialize_kernel(&kernel));
    Ok(())
}
