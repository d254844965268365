//! WSIR instruction set.
//!
//! WSIR is the warp-specialized, PTX-level virtual ISA the Tawa compiler
//! emits (paper §III-E): asynchronous TMA bulk copies bound to transaction
//! mbarriers, mbarrier arrive/wait with the iteration-parity discipline,
//! asynchronous WGMMA issue groups with bounded in-flight waits, CUDA-core
//! work, and structured loops. Each warp group of a kernel executes its own
//! instruction stream; all cross-warp-group communication happens through
//! mbarriers — exactly the discipline the `aref` lowering guarantees.

use std::fmt;

/// Index of an mbarrier declared in the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BarId(pub u32);

impl fmt::Display for BarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bar{}", self.0)
    }
}

/// Element type of a WGMMA instruction; determines tensor-core throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmaDtype {
    /// FP16 inputs, FP32 accumulate (989 TFLOP/s peak on H100 SXM5).
    F16,
    /// FP8 (e4m3) inputs, FP32 accumulate (2× FP16 peak).
    F8,
}

impl MmaDtype {
    /// Bytes per input element.
    pub fn size_bytes(self) -> u64 {
        match self {
            MmaDtype::F16 => 2,
            MmaDtype::F8 => 1,
        }
    }
}

impl fmt::Display for MmaDtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmaDtype::F16 => write!(f, "f16"),
            MmaDtype::F8 => write!(f, "f8"),
        }
    }
}

/// A loop trip count: either static or a per-CTA-class parameter (used for
/// causal attention, grouped GEMM and persistent work distribution, where
/// different CTAs run different trip counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Fixed trip count.
    Const(u64),
    /// Index into [`crate::kernel::CtaClass::params`].
    Param(usize),
}

impl Count {
    /// Resolves the count against a CTA class's parameters. A `Param`
    /// index past the end resolves to 0 trips: [`crate::validate`] reports
    /// it as `loop-param-out-of-range`, and nothing that walks a kernel
    /// may panic on one.
    pub fn resolve(self, params: &[u64]) -> u64 {
        match self {
            Count::Const(c) => c,
            Count::Param(i) => params.get(i).copied().unwrap_or(0),
        }
    }
}

impl fmt::Display for Count {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Count::Const(c) => write!(f, "{c}"),
            Count::Param(i) => write!(f, "$p{i}"),
        }
    }
}

/// One WSIR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Asynchronous TMA bulk load of `bytes` into shared memory. On
    /// completion the TMA unit arrives once at `bar` and posts `bytes` of
    /// transaction count (Hopper `cp.async.bulk.tensor` +
    /// `mbarrier.arrive.expect_tx`).
    TmaLoad {
        /// Transfer size in bytes.
        bytes: u64,
        /// Transaction barrier signalled on completion.
        bar: BarId,
    },
    /// Asynchronous TMA bulk store of `bytes` from shared memory to global
    /// memory (fire-and-forget at kernel scale; drains before exit).
    TmaStore {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Ampere-style `cp.async` copy issued from a compute warp: occupies the
    /// issuing warp group for an issue cost proportional to `bytes` and
    /// moves data at a lower effective bandwidth than TMA. Completion joins
    /// the warp group's cp.async group counter.
    CpAsync {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Blocks until at most `pending` cp.async groups remain in flight.
    CpAsyncWait {
        /// Allowed in-flight groups.
        pending: u32,
    },
    /// Arrives once at `bar` (consumer release on an `empty` barrier).
    MbarArrive {
        /// Target barrier.
        bar: BarId,
    },
    /// Blocks until `bar` completes its next phase relative to this warp
    /// group's local phase counter (the parity mechanism of §III-E: each
    /// warp group tracks which phase of each barrier it has consumed, so a
    /// wait is skipped outright if the producer already ran ahead).
    MbarWait {
        /// Barrier waited on.
        bar: BarId,
    },
    /// Issues one asynchronous WGMMA group computing an `m×n×k` MMA tile.
    WgmmaIssue {
        /// Tile rows.
        m: u32,
        /// Tile columns.
        n: u32,
        /// Contraction depth.
        k: u32,
        /// Input precision.
        dtype: MmaDtype,
    },
    /// Blocks until at most `pending` WGMMA groups issued by this warp
    /// group remain in flight (`wgmma.wait_group.sync.aligned N`). The
    /// fine-grained MMA pipeline of §III-D-1 is expressed with this.
    WgmmaWait {
        /// Allowed in-flight groups.
        pending: u32,
    },
    /// CUDA-core work: `flops` FP32 operations plus `sfu` special-function
    /// operations (exp/ex2), e.g. softmax, scaling, address math.
    CudaOp {
        /// FP32 ALU operations.
        flops: u64,
        /// Special-function (transcendental) operations.
        sfu: u64,
        /// Diagnostic label.
        label: &'static str,
    },
    /// Direct global store through L2 (register epilogue, `st.global`).
    GlobalStore {
        /// Stored bytes.
        bytes: u64,
    },
    /// Direct global load through L2 (non-TMA path used by baselines).
    GlobalLoad {
        /// Loaded bytes.
        bytes: u64,
    },
    /// CTA-wide barrier across all warp groups (`bar.sync`), used by the
    /// non-specialized software-pipelining baseline.
    Syncthreads,
    /// Structured counted loop.
    Loop {
        /// Trip count.
        count: Count,
        /// Loop body.
        body: Vec<Instr>,
    },
    /// Register reallocation marker (`setmaxnreg`); affects occupancy
    /// accounting only.
    SetMaxNReg {
        /// New register ceiling per thread.
        regs: u32,
    },
    /// Fixed-latency bubble (prologue costs, scheduling gaps).
    Delay {
        /// Stall cycles.
        cycles: u64,
    },
}

impl Instr {
    /// Shorthand for a loop with a constant trip count.
    pub fn loop_const(count: u64, body: Vec<Instr>) -> Instr {
        Instr::Loop {
            count: Count::Const(count),
            body,
        }
    }

    /// Shorthand for a loop with a parameterized trip count.
    pub fn loop_param(param: usize, body: Vec<Instr>) -> Instr {
        Instr::Loop {
            count: Count::Param(param),
            body,
        }
    }

    /// Recursively counts instructions (loop bodies counted once).
    pub fn static_len(instrs: &[Instr]) -> usize {
        let mut n = 0;
        for i in instrs {
            n += 1;
            if let Instr::Loop { body, .. } = i {
                n += Instr::static_len(body);
            }
        }
        n
    }
}

/// Role a warp group plays in a warp-specialized kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Load warp group driving the TMA (paper's WG0).
    Producer,
    /// Compute warp group driving Tensor Cores (paper's WG1, WG2...).
    Consumer,
    /// Non-specialized warp group doing both (SIMT baseline).
    Uniform,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Producer => write!(f, "producer"),
            Role::Consumer => write!(f, "consumer"),
            Role::Uniform => write!(f, "uniform"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_resolution() {
        assert_eq!(Count::Const(8).resolve(&[]), 8);
        assert_eq!(Count::Param(1).resolve(&[3, 9]), 9);
    }

    #[test]
    fn count_param_out_of_range_resolves_to_zero() {
        assert_eq!(Count::Param(2).resolve(&[1]), 0);
    }

    #[test]
    fn static_len_counts_nested() {
        let body = vec![
            Instr::MbarWait { bar: BarId(0) },
            Instr::loop_const(
                4,
                vec![Instr::WgmmaIssue {
                    m: 64,
                    n: 128,
                    k: 16,
                    dtype: MmaDtype::F16,
                }],
            ),
        ];
        assert_eq!(Instr::static_len(&body), 3);
    }

    #[test]
    fn mma_dtype_sizes() {
        assert_eq!(MmaDtype::F16.size_bytes(), 2);
        assert_eq!(MmaDtype::F8.size_bytes(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(BarId(3).to_string(), "bar3");
        assert_eq!(Count::Param(0).to_string(), "$p0");
        assert_eq!(Count::Const(7).to_string(), "7");
        assert_eq!(Role::Producer.to_string(), "producer");
    }
}
