//! Device model: calibration constants for a Hopper-class GPU, the
//! occupancy calculator and the per-SM bandwidth a launch is provisioned
//! with.
//!
//! All absolute performance in the reproduction derives from these numbers
//! (see the `gpu_sim` row of ARCHITECTURE.md's "Crate → paper-section
//! map"). They are set once for an H100 SXM5 and are *not* tuned per
//! framework — relative results emerge from scheduling behaviour.

use tawa_wsir::{Kernel, MmaDtype};

use crate::engine::EngineCfg;

/// Calibration constants for the simulated GPU.
#[derive(Debug, Clone)]
pub struct Device {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// Dense FP16 tensor-core FLOPs per cycle per SM.
    pub tc_fp16_flops_per_cycle: f64,
    /// FP8 throughput multiplier over FP16 (2.0 on Hopper).
    pub fp8_multiplier: f64,
    /// FP32 CUDA-core FLOPs per cycle per SM (128 FMA lanes).
    pub cuda_flops_per_cycle: f64,
    /// Special-function (exp) operations per cycle per SM.
    pub sfu_ops_per_cycle: f64,
    /// Device-wide HBM bandwidth in bytes per cycle.
    pub hbm_bytes_per_cycle: f64,
    /// Device-wide L2 service bandwidth in bytes per cycle (tile loads are
    /// served from L2 thanks to inter-CTA tile reuse; this is the sustained
    /// rate the TMA engines can pull in aggregate).
    pub l2_bytes_per_cycle: f64,
    /// Per-SM ceiling of one TMA engine in bytes per cycle.
    pub tma_engine_bytes_per_cycle: f64,
    /// Global → shared round-trip latency of a TMA transfer, in cycles.
    pub tma_latency_cycles: u64,
    /// Latency of a dependent `ld.global` (L2 hit mix), in cycles.
    pub global_load_latency_cycles: u64,
    /// Effective bandwidth ratio of Ampere-style `cp.async` relative to the
    /// TMA path (no multidimensional bulk transfers, more L2 transactions).
    pub cp_async_efficiency: f64,
    /// CUDA-core issue cost of `cp.async`, cycles per 2 KB warp-group issue.
    pub cp_async_issue_cycles_per_2kb: f64,
    /// Usable shared memory per SM in bytes (228 KB on Hopper).
    pub smem_per_sm: u64,
    /// 32-bit registers per SM.
    pub regs_per_sm: u64,
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Hardware CTA slots per SM.
    pub max_ctas_per_sm: u32,
    /// Latency from an mbarrier phase completing to a blocked warp group
    /// resuming execution (scoreboard + scheduler wake), cycles.
    pub mbar_wake_cycles: u64,
    /// Pipeline-drain latency paid when a `wgmma.wait_group` unblocks: the
    /// final stages of the retiring WGMMA plus accumulator visibility.
    /// Deep MMA pipelines (P ≥ 2) hide it; P = 1 pays it every iteration —
    /// the effect behind Fig. 11's P dimension.
    pub wgmma_drain_cycles: u64,
    /// Issue cost charged to a warp group per WSIR instruction, cycles.
    pub instr_issue_cycles: u64,
    /// Per-iteration loop bookkeeping cost (index math + branch), cycles.
    pub loop_overhead_cycles: u64,
    /// One-time CTA start cost (block scheduling, descriptor setup), cycles.
    pub cta_start_cycles: u64,
    /// Gap between back-to-back CTAs on the same SM slot for
    /// non-persistent kernels (grid scheduler dispatch), cycles.
    pub cta_dispatch_gap_cycles: u64,
    /// L2-locality bandwidth bonus for persistent kernels that walk
    /// consecutive tiles from a work queue (paper §IV-B / §V-E).
    pub persistent_l2_bonus: f64,
}

impl Device {
    /// The NVIDIA H100 SXM5 configuration used throughout the paper.
    pub fn h100_sxm5() -> Device {
        let sms = 132;
        let clock_ghz = 1.755;
        // 989.4 TFLOP/s dense FP16 → per-SM per-cycle.
        let tc_fp16 = 989.4e12 / (sms as f64 * clock_ghz * 1e9);
        Device {
            name: "H100-SXM5-80GB (simulated)",
            sms,
            clock_ghz,
            tc_fp16_flops_per_cycle: tc_fp16,
            fp8_multiplier: 2.0,
            cuda_flops_per_cycle: 256.0,
            sfu_ops_per_cycle: 16.0,
            // 3.35 TB/s HBM3.
            hbm_bytes_per_cycle: 3.35e12 / (clock_ghz * 1e9),
            // ~10.5 TB/s aggregate L2 service rate (good-swizzle tile reads).
            l2_bytes_per_cycle: 10.5e12 / (clock_ghz * 1e9),
            tma_engine_bytes_per_cycle: 128.0,
            tma_latency_cycles: 750,
            global_load_latency_cycles: 550,
            cp_async_efficiency: 0.88,
            cp_async_issue_cycles_per_2kb: 8.0,
            smem_per_sm: 228 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 32,
            mbar_wake_cycles: 40,
            wgmma_drain_cycles: 150,
            instr_issue_cycles: 2,
            loop_overhead_cycles: 8,
            cta_start_cycles: 1200,
            cta_dispatch_gap_cycles: 700,
            persistent_l2_bonus: 1.06,
        }
    }

    /// A projected Blackwell-class (B200-like) configuration, following the
    /// paper's §VI direction of generalizing beyond Hopper. Numbers are
    /// public-datasheet projections (denser tensor cores, HBM3e, more
    /// shared memory headroom via tensor memory); the scheduling machinery
    /// is unchanged, which is the point: `aref` programs carry over.
    pub fn b200_projection() -> Device {
        let mut d = Device::h100_sxm5();
        d.name = "B200-class (projected)";
        d.sms = 148;
        // 2.25 PFLOP/s dense FP16.
        d.tc_fp16_flops_per_cycle = 2250.0e12 / (d.sms as f64 * d.clock_ghz * 1e9);
        d.hbm_bytes_per_cycle = 8.0e12 / (d.clock_ghz * 1e9);
        d.l2_bytes_per_cycle = 25.0e12 / (d.clock_ghz * 1e9);
        d.tma_engine_bytes_per_cycle = 256.0;
        d.smem_per_sm = 256 * 1024;
        d
    }

    /// Tensor-core FLOPs per cycle per SM for a given precision.
    pub fn tc_flops_per_cycle(&self, dtype: MmaDtype) -> f64 {
        match dtype {
            MmaDtype::F16 => self.tc_fp16_flops_per_cycle,
            MmaDtype::F8 => self.tc_fp16_flops_per_cycle * self.fp8_multiplier,
        }
    }

    /// Theoretical peak in TFLOP/s for a precision.
    pub fn peak_tflops(&self, dtype: MmaDtype) -> f64 {
        self.tc_flops_per_cycle(dtype) * self.sms as f64 * self.clock_ghz * 1e9 / 1e12
    }

    /// Converts cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.clock_ghz
    }

    /// How many CTAs of `kernel` each per-SM budget admits: shared
    /// memory, registers, threads and hardware CTA slots, in that order
    /// (the order names the limiter on a tie).
    pub(crate) fn occupancy_quotients(&self, kernel: &Kernel) -> [(&'static str, u64); 4] {
        [
            ("smem", self.smem_per_sm / kernel.smem_bytes.max(1)),
            ("regs", self.regs_per_sm / kernel.regs_per_cta().max(1)),
            (
                "threads",
                self.max_threads_per_sm as u64 / kernel.threads_per_cta().max(1) as u64,
            ),
            ("slots", self.max_ctas_per_sm as u64),
        ]
    }

    /// Resident CTAs per SM for `kernel`, limited by shared memory,
    /// registers, threads and hardware CTA slots (the smallest of
    /// `occupancy_quotients`). Returns 0 if the kernel cannot be placed at
    /// all.
    pub fn occupancy(&self, kernel: &Kernel) -> u32 {
        self.occupancy_quotients(kernel)
            .iter()
            .map(|&(_, q)| q)
            .min()
            .unwrap_or(0) as u32
    }

    /// SMs a launch of `kernel` occupies (at least one).
    pub(crate) fn active_sms(&self, kernel: &Kernel) -> f64 {
        kernel.grid_size().min(self.sms as u64).max(1) as f64
    }

    /// The bandwidth each SM is provisioned with while `kernel` runs: the
    /// L2 and HBM rates shared by the active SMs, loads capped by one TMA
    /// engine and raised by the persistent-kernel L2 bonus. The engine
    /// runs with it and the analytic bounds assume it, so both agree on
    /// what bandwidth exists.
    pub(crate) fn provision(&self, kernel: &Kernel) -> EngineCfg {
        let active_sms = self.active_sms(kernel);
        let l2_bonus = if kernel.persistent {
            self.persistent_l2_bonus
        } else {
            1.0
        };
        EngineCfg {
            load_bw: (self.l2_bytes_per_cycle / active_sms).min(self.tma_engine_bytes_per_cycle)
                * l2_bonus,
            store_bw: self.hbm_bytes_per_cycle / active_sms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_wsir::Role;

    #[test]
    fn h100_peaks_match_datasheet() {
        let d = Device::h100_sxm5();
        let fp16 = d.peak_tflops(MmaDtype::F16);
        let fp8 = d.peak_tflops(MmaDtype::F8);
        assert!((fp16 - 989.4).abs() < 1.0, "fp16 peak {fp16}");
        assert!((fp8 - 1978.8).abs() < 2.0, "fp8 peak {fp8}");
    }

    #[test]
    fn cycles_to_time() {
        let d = Device::h100_sxm5();
        let ns = d.cycles_to_ns(1.755e9);
        assert!((ns - 1e9).abs() < 1.0); // 1.755G cycles at 1.755GHz = 1s
    }

    fn kernel_with(smem: u64, wg_regs: &[u32]) -> Kernel {
        let mut k = Kernel::new("t");
        k.uniform_grid(1024);
        k.smem_bytes = smem;
        for &r in wg_regs {
            k.add_warp_group(Role::Consumer, r, vec![tawa_wsir::Instr::Syncthreads]);
        }
        k
    }

    #[test]
    fn occupancy_limited_by_smem() {
        let d = Device::h100_sxm5();
        // Big double-buffered WS kernel: ~196KB smem → 1 CTA/SM.
        let k = kernel_with(196 * 1024, &[24, 240, 240]);
        assert_eq!(d.occupancy(&k), 1);
        // Half that fits twice.
        let k2 = kernel_with(96 * 1024, &[24, 168]);
        assert_eq!(d.occupancy(&k2), 2);
    }

    #[test]
    fn occupancy_limited_by_regs() {
        let d = Device::h100_sxm5();
        // 3 WGs × 128 threads × 240 regs = 92160 regs > 65536 → does not fit.
        let k = kernel_with(1024, &[240, 240, 240]);
        assert_eq!(d.occupancy(&k), 0);
        // Producer deallocation makes it fit: 24 + 240 + 240 regs.
        let k2 = kernel_with(1024, &[24, 240, 240]);
        assert_eq!(d.occupancy(&k2), 1);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let d = Device::h100_sxm5();
        // 4 WGs = 512 threads, tiny smem/regs → limited to 4 CTAs by threads? 2048/512 = 4.
        let k = kernel_with(1024, &[32, 32, 32, 32]);
        assert_eq!(d.occupancy(&k), 4);
    }

    #[test]
    fn occupancy_is_the_least_quotient() {
        let d = Device::h100_sxm5();
        // 4 WGs × 128 threads × 32 regs = 16384 regs and 512 threads: both
        // admit 4 CTAs, below the smem and slot budgets.
        let k = kernel_with(1024, &[32, 32, 32, 32]);
        assert_eq!(
            d.occupancy_quotients(&k),
            [("smem", 228), ("regs", 4), ("threads", 4), ("slots", 32)]
        );
        assert_eq!(d.occupancy(&k), 4);
    }

    #[test]
    fn provision_shares_bandwidth_over_active_sms() {
        let d = Device::h100_sxm5();
        let sms = d.sms as f64;
        // A full wave shares L2 and HBM over every SM.
        let mut k = kernel_with(1024, &[32]);
        let full = d.provision(&k);
        assert_eq!(
            full.load_bw,
            (d.l2_bytes_per_cycle / sms).min(d.tma_engine_bytes_per_cycle)
        );
        assert_eq!(full.store_bw, d.hbm_bytes_per_cycle / sms);
        // A lone CTA has L2 and HBM to itself; one TMA engine caps its loads.
        k.uniform_grid(1);
        let solo = d.provision(&k);
        assert_eq!(solo.load_bw, d.tma_engine_bytes_per_cycle);
        assert_eq!(solo.store_bw, d.hbm_bytes_per_cycle);
        // A persistent launch gets the L2 bonus on loads only.
        k.uniform_grid(1024);
        k.persistent = true;
        let pers = d.provision(&k);
        assert_eq!(pers.load_bw, full.load_bw * d.persistent_l2_bonus);
        assert_eq!(pers.store_bw, full.store_bw);
    }

    #[test]
    fn blackwell_projection_scales_up() {
        let h = Device::h100_sxm5();
        let b = Device::b200_projection();
        assert!(b.peak_tflops(MmaDtype::F16) > 2.0 * h.peak_tflops(MmaDtype::F16));
        assert!(b.hbm_bytes_per_cycle > h.hbm_bytes_per_cycle);
        assert!(b.smem_per_sm > h.smem_per_sm);
    }

    #[test]
    fn tc_rate_fp8_doubles() {
        let d = Device::h100_sxm5();
        assert!(
            (d.tc_flops_per_cycle(MmaDtype::F8) - 2.0 * d.tc_flops_per_cycle(MmaDtype::F16)).abs()
                < 1e-9
        );
    }
}
