//! # tawa-kernels
//!
//! Baseline GPU kernel implementations for the Tawa evaluation: expert
//! warp-specialized WSIR templates ([`templates`]) and the framework
//! strategy encodings ([`frameworks`]) for cuBLAS, CUTLASS
//! FlashAttention-3, TileLang, ThunderKittens, and the Triton baseline
//! (the Tawa compiler with warp specialization disabled).
//!
//! ## Example
//!
//! ```
//! use gpu_sim::Device;
//! use tawa_core::CompileSession;
//! use tawa_frontend::config::GemmConfig;
//! use tawa_kernels::frameworks::{cublas_gemm, tawa_gemm};
//!
//! # fn main() -> Result<(), String> {
//! let device = Device::h100_sxm5();
//! let session = CompileSession::in_memory(&device);
//! let cfg = GemmConfig::new(4096, 4096, 4096);
//! let expert = cublas_gemm(&cfg, &device)?;
//! let compiled = tawa_gemm(&cfg, &session)?;
//! println!("cuBLAS {:.0} vs Tawa {:.0} TFLOP/s", expert.tflops, compiled.tflops);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod frameworks;
pub mod templates;

pub use frameworks::BenchOutcome;
