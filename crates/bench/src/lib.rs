//! # tawa-bench
//!
//! The benchmark harness regenerating every figure of the Tawa paper's
//! evaluation (§V): Fig. 8 (GEMM FP16/FP8 K-sweeps), Fig. 9 (batched and
//! grouped GEMM), Fig. 10 (multi-head attention), Fig. 11 (aref-size ×
//! MMA-depth heatmaps) and Fig. 12 (optimization ablations), plus the
//! speedup summaries quoted in the text.
//!
//! Every figure runs over a caller's `CompileSession`
//! (`run_with_session`). The one binary, `all_figures`, prints every
//! table with its summaries over one session (`--csv` renders the
//! Fig. 8–10 panels as CSV).

#![warn(missing_docs)]

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig8;
pub mod fig9;
pub mod report;

pub use report::{Figure, Scale, Series};
