//! Top-level kernel simulation: occupancy placement, wave scheduling,
//! bandwidth provisioning and report generation.
//!
//! The engine ([`crate::engine`]) simulates one SM event-accurately; this
//! module replicates that wave analytically across the grid (a standard
//! analytic-replication technique): a kernel with G CTAs at occupancy O on
//! S SMs runs ⌈G / (S·O)⌉ waves, each costing one simulated wave plus a
//! grid-scheduler dispatch gap. Persistent kernels pre-collapse their grid
//! to one resident wave whose CTAs loop over tiles, so they pay the wave
//! machinery exactly once — which is where their advantage comes from
//! (paper §IV-B). The wave count is taken **per CTA class** and the
//! classes' costs add up, so two launches whose classes each fit one wave
//! (32 and 128 CTAs on 132 slots, say) report equal cycles and differ only
//! in bytes, FLOPs and throughput.
//!
//! The classes themselves are simulated by [`crate::engine::run_classes`]
//! as one family, on the calling thread, and folded in class order.

use std::fmt;

use tawa_wsir::{validate, Kernel, Lint};

use crate::device::Device;
use crate::engine::{run_classes, EngineCfg, EngineStats};

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// The kernel failed structural validation (the cheap tier of
    /// `tawa_wsir::analyze`; protocol-level deadlocks are left to the
    /// engine so dynamic reports stay observable).
    Invalid(Vec<Lint>),
    /// The kernel's per-CTA resources exceed the SM (occupancy zero).
    DoesNotFit {
        /// Required shared memory (bytes).
        smem: u64,
        /// Required registers per CTA.
        regs: u64,
    },
    /// The kernel deadlocked; the payload describes the blocked actors.
    Deadlock(String),
    /// The run is so long that a cycle, byte or FLOP count does not fit 64
    /// bits. Deterministic, like a deadlock: no report exists.
    Overflow,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Invalid(errs) => {
                writeln!(f, "kernel failed validation:")?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            SimError::DoesNotFit { smem, regs } => write!(
                f,
                "kernel does not fit on an SM (smem {smem} B, {regs} regs/CTA)"
            ),
            SimError::Deadlock(d) => write!(f, "{d}"),
            SimError::Overflow => write!(
                f,
                "overflow: the run is too long for 64-bit cycle, byte and FLOP counters"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of simulating one kernel launch.
///
/// Reports compare with `==` field-by-field; the float fields use IEEE
/// semantics, so a report containing NaN never equals itself — compare
/// via [`f64::to_bits`] where bit-exact identity matters (as the
/// serialization tests do).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Kernel name.
    pub kernel: String,
    /// End-to-end time including host launch overhead, microseconds.
    pub total_time_us: f64,
    /// Device-side execution time, microseconds.
    pub kernel_time_us: f64,
    /// Useful throughput in TFLOP/s (`useful_flops / total_time`).
    pub tflops: f64,
    /// Tensor-core busy fraction during the representative wave (the
    /// dominant CTA class — see [`SimReport::wave_stats`]).
    pub tc_utilization: f64,
    /// Resident CTAs per SM.
    pub occupancy: u32,
    /// Number of waves executed (1 for persistent kernels).
    pub waves: u64,
    /// Total device cycles.
    pub cycles: u64,
    /// Total bytes loaded from global memory across the whole grid.
    pub bytes_loaded: u64,
    /// Total bytes stored across the whole grid.
    pub bytes_stored: u64,
    /// Total tensor-core FLOPs across the whole grid.
    pub tc_flops: u64,
    /// Representative per-wave engine statistics.
    ///
    /// Multi-class kernels (e.g. a warp-specialized main grid plus an
    /// epilogue class) simulate one wave per class; the representative is
    /// the **dominant** class — the one contributing the most device time,
    /// `multiplicity × per-wave cycles` — with ties keeping the earlier
    /// class. Taking the first class regardless (as this field once did)
    /// misreports any kernel whose first class is a small remainder or
    /// epilogue class.
    pub wave_stats: EngineStats,
}

/// Scales an engine counter measured over `occ` resident CTAs of one
/// class to that class's whole-grid contribution:
/// `total × multiplicity / occ`.
///
/// The multiply runs first, widened to 128 bits, so the truncating
/// division happens once on the full product. Dividing first
/// (`total / occ × multiplicity`, as this code once did) silently drops
/// up to `occ − 1` bytes/FLOPs *per class* whenever the engine total is
/// not an exact multiple of `occ`. Saturates at `u64::MAX` rather than
/// wrapping for pathological grids.
fn grid_total(total: u64, multiplicity: u64, occ: u32) -> u64 {
    debug_assert!(occ > 0, "callers check occupancy before accounting");
    let scaled = total as u128 * multiplicity as u128 / occ.max(1) as u128;
    u64::try_from(scaled).unwrap_or(u64::MAX)
}

/// Options controlling how a simulation *executes* — never what it
/// computes, which is why [`crate::COST_MODEL_VERSION`] does not mention
/// them.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// No effect. CTA classes once simulated on scoped worker threads when
    /// this was set; they now run as one family on the calling thread
    /// ([`crate::engine::run_classes`]), which leaves too little work per
    /// class for a thread to pay for its spawn. The field stays, with its
    /// old default, because the frozen benchmark's
    /// `sim.engine.parallel_classes_speedup` probe and the parallel ≡
    /// sequential tests construct it; both values give the same report.
    pub parallel_classes: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            parallel_classes: true,
        }
    }
}

/// Simulates `kernel` on `device` with default [`SimOptions`].
///
/// # Errors
/// Returns [`SimError::Invalid`] for malformed kernels,
/// [`SimError::DoesNotFit`] when occupancy is zero,
/// [`SimError::Deadlock`] when forward progress stops and
/// [`SimError::Overflow`] when a count outgrows 64 bits.
pub fn simulate(kernel: &Kernel, device: &Device) -> Result<SimReport, SimError> {
    simulate_with(kernel, device, &SimOptions::default())
}

/// What every engine run of one launch shares: the occupancy the kernel
/// reaches and the bandwidth each SM is provisioned with. Public only so
/// the differential tests can drive the engine exactly as [`simulate`]
/// does; not part of the product's surface.
///
/// # Errors
/// [`SimError::Invalid`] and [`SimError::DoesNotFit`], as [`simulate`].
#[doc(hidden)]
pub fn wave_setup(kernel: &Kernel, device: &Device) -> Result<(u32, EngineCfg), SimError> {
    validate(kernel).map_err(SimError::Invalid)?;
    let occ = device.occupancy(kernel);
    if occ == 0 {
        return Err(SimError::DoesNotFit {
            smem: kernel.smem_bytes,
            regs: kernel.regs_per_cta(),
        });
    }

    Ok((occ, device.provision(kernel)))
}

/// Simulates `kernel` on `device` with explicit execution options, none
/// of which changes the report (see [`SimOptions`]).
///
/// # Errors
/// Same contract as [`simulate`].
pub fn simulate_with(
    kernel: &Kernel,
    device: &Device,
    _opts: &SimOptions,
) -> Result<SimReport, SimError> {
    let (occ, cfg) = wave_setup(kernel, device)?;

    let slots_per_wave = device.sms as u64 * occ as u64;
    let mut total_cycles: u64 = 0;
    let mut waves_total: u64 = 0;
    let mut bytes_loaded: u64 = 0;
    let mut bytes_stored: u64 = 0;
    let mut tc_flops: u64 = 0;
    // The representative wave and its weight (see `SimReport::wave_stats`).
    let mut dominant: Option<(u128, EngineStats)> = None;
    let mut persistent_max: u64 = 0;

    // One engine result per class, folded in class order: a failure in any
    // class surfaces as the first one in class order.
    for (class, result) in kernel
        .classes
        .iter()
        .zip(run_classes(kernel, device, occ, &cfg))
    {
        if let Some(d) = result.deadlock {
            return Err(SimError::Deadlock(d));
        }
        if result.overflow {
            return Err(SimError::Overflow);
        }
        let stats = result.stats;
        // Engine simulated `occ` CTAs of this class on one SM; scale the
        // totals to the class's whole-grid contribution.
        let add = |total: &mut u64, per_wave: u64| {
            *total = total.checked_add(grid_total(per_wave, class.multiplicity, occ))?;
            Some(())
        };
        add(&mut bytes_loaded, stats.bytes_loaded).ok_or(SimError::Overflow)?;
        add(&mut bytes_stored, stats.bytes_stored).ok_or(SimError::Overflow)?;
        add(&mut tc_flops, stats.tc_flops).ok_or(SimError::Overflow)?;

        if kernel.persistent {
            // Persistent classes run concurrently on disjoint SM slots;
            // the launch completes when the slowest finishes.
            persistent_max = persistent_max.max(stats.cycles);
            waves_total = 1;
        } else {
            let waves = class.multiplicity.div_ceil(slots_per_wave);
            let gaps = waves.saturating_sub(1);
            total_cycles = (waves.checked_mul(stats.cycles))
                .and_then(|c| c.checked_add(gaps.checked_mul(device.cta_dispatch_gap_cycles)?))
                .and_then(|c| c.checked_add(total_cycles))
                .ok_or(SimError::Overflow)?;
            waves_total = waves_total.checked_add(waves).ok_or(SimError::Overflow)?;
        }
        // Representative wave: the dominant class by total device time
        // (multiplicity × per-wave cycles), ties keeping the earlier
        // class — not blindly the first class, which misreports kernels
        // whose leading class is a small remainder or epilogue.
        let weight = stats.cycles as u128 * class.multiplicity as u128;
        if dominant.as_ref().is_none_or(|(w, _)| weight > *w) {
            dominant = Some((weight, stats));
        }
    }
    if kernel.persistent {
        total_cycles = persistent_max;
    }
    // (`validate` rejects a kernel without classes.)
    let (_, wave_stats) = dominant.unwrap_or_default();

    let kernel_time_ns = device.cycles_to_ns(total_cycles as f64);
    let total_time_ns = kernel_time_ns + kernel.launch_overhead_ns as f64;
    let tc_utilization = if wave_stats.cycles > 0 {
        wave_stats.tc_busy as f64 / wave_stats.cycles as f64
    } else {
        0.0
    };
    let tflops = if total_time_ns > 0.0 {
        kernel.useful_flops / (total_time_ns * 1e-9) / 1e12
    } else {
        0.0
    };

    Ok(SimReport {
        kernel: kernel.name.clone(),
        total_time_us: total_time_ns / 1000.0,
        kernel_time_us: kernel_time_ns / 1000.0,
        tflops,
        tc_utilization,
        occupancy: occ,
        waves: waves_total,
        cycles: total_cycles,
        bytes_loaded,
        bytes_stored,
        tc_flops,
        wave_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_wsir::{Instr, Kernel, MmaDtype, Role};

    /// Double-buffered warp-specialized GEMM-shaped kernel over `iters`
    /// k-steps with an `m x n` tile.
    fn ws_gemm_kernel(grid: u64, iters: u64, persistent: bool) -> Kernel {
        let mut k = Kernel::new("ws_gemm");
        k.uniform_grid(grid);
        k.smem_bytes = 2 * (128 * 64 + 128 * 64) * 2 + 1024;
        k.persistent = persistent;
        let mut full = Vec::new();
        let mut empty = Vec::new();
        for s in 0..2 {
            full.push(k.add_barrier(&format!("full{s}"), 2));
            empty.push(k.add_barrier_init(&format!("empty{s}"), 1, 1));
        }
        let mut pbody = Vec::new();
        let mut cbody = Vec::new();
        for s in 0..2 {
            pbody.push(Instr::MbarWait { bar: empty[s] });
            pbody.push(Instr::TmaLoad {
                bytes: 128 * 64 * 2,
                bar: full[s],
            });
            pbody.push(Instr::TmaLoad {
                bytes: 128 * 64 * 2,
                bar: full[s],
            });
            cbody.push(Instr::MbarWait { bar: full[s] });
            cbody.push(Instr::WgmmaIssue {
                m: 128,
                n: 128,
                k: 64,
                dtype: MmaDtype::F16,
            });
            cbody.push(Instr::WgmmaWait { pending: 0 });
            cbody.push(Instr::MbarArrive { bar: empty[s] });
        }
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(iters / 2, pbody)],
        );
        let mut consumer = vec![Instr::loop_const(iters / 2, cbody)];
        consumer.push(Instr::GlobalStore {
            bytes: 128 * 128 * 2,
        });
        k.add_warp_group(Role::Consumer, 232, consumer);
        k.useful_flops = grid as f64 * iters as f64 * (2 * 128 * 128 * 64) as f64;
        k
    }

    #[test]
    fn simulate_reports_throughput() {
        let dev = Device::h100_sxm5();
        let k = ws_gemm_kernel(4096, 64, false);
        let r = simulate(&k, &dev).unwrap();
        assert!(r.tflops > 50.0, "implausibly low {}", r.tflops);
        assert!(r.tflops < dev.peak_tflops(MmaDtype::F16), "{}", r.tflops);
        assert!(r.occupancy >= 1);
        assert!(r.waves >= 1);
        // Conservation: every CTA loads iters × 2 tiles of 128x64xf16.
        assert_eq!(r.bytes_loaded, 4096 * 64 * 2 * 128 * 64 * 2);
        assert_eq!(r.tc_flops, 4096 * 64 * 2 * 128 * 128 * 64);
    }

    #[test]
    fn more_waves_for_bigger_grids() {
        let dev = Device::h100_sxm5();
        let small = simulate(&ws_gemm_kernel(132, 32, false), &dev).unwrap();
        let big = simulate(&ws_gemm_kernel(1320, 32, false), &dev).unwrap();
        assert!(big.waves > small.waves);
        assert!(big.cycles > small.cycles);
    }

    #[test]
    fn rejects_oversized_kernels() {
        let dev = Device::h100_sxm5();
        let mut k = ws_gemm_kernel(128, 8, false);
        k.smem_bytes = 512 * 1024;
        match simulate(&k, &dev) {
            Err(SimError::DoesNotFit { smem, .. }) => assert_eq!(smem, 512 * 1024),
            other => panic!("expected DoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_kernels() {
        let dev = Device::h100_sxm5();
        let k = Kernel::new("empty");
        assert!(matches!(simulate(&k, &dev), Err(SimError::Invalid(_))));
    }

    #[test]
    fn deadlock_is_reported_as_error() {
        let dev = Device::h100_sxm5();
        let mut k = Kernel::new("dl");
        k.uniform_grid(1);
        k.smem_bytes = 1024;
        let full = k.add_barrier("full", 1);
        let empty = k.add_barrier("empty", 1); // no initial credit: deadlock
        k.add_warp_group(
            Role::Producer,
            24,
            vec![
                Instr::MbarWait { bar: empty },
                Instr::TmaLoad {
                    bytes: 1024,
                    bar: full,
                },
            ],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::MbarWait { bar: full },
                Instr::MbarArrive { bar: empty },
            ],
        );
        assert!(matches!(simulate(&k, &dev), Err(SimError::Deadlock(_))));
    }

    #[test]
    fn counts_that_outgrow_64_bits_are_an_error_not_a_report() {
        let dev = Device::h100_sxm5();
        // 2^40 K-steps: long, and every total still exact.
        let r = simulate(&ws_gemm_kernel(1, 1 << 40, false), &dev).unwrap();
        assert_eq!(r.tc_flops, (1 << 40) * 2 * 128 * 128 * 64);
        assert_eq!(r.bytes_loaded, (1 << 40) * 2 * 128 * 64 * 2);
        // 2^57 and 2^64 - 1: the per-wave byte and FLOP counts wrap. This
        // was `Ok(SimReport { tc_flops: 0, bytes_loaded: 0, .. })` in a
        // release build, published to every cache tier.
        for iters in [1 << 57, u64::MAX] {
            for persistent in [false, true] {
                let k = ws_gemm_kernel(132, iters, persistent);
                assert!(matches!(simulate(&k, &dev), Err(SimError::Overflow)));
            }
        }
        assert!(SimError::Overflow.to_string().starts_with("overflow:"));
        // Per-wave counts that fit but whose sum over the waves does not.
        let mut k = ws_gemm_kernel(132, 1 << 50, false);
        k.classes[0].multiplicity = 1 << 40;
        assert!(matches!(simulate(&k, &dev), Err(SimError::Overflow)));
    }

    #[test]
    fn grid_totals_are_exact_for_non_divisible_occupancy() {
        // 10 units measured over 4 residents, 4 CTAs in the grid: the
        // whole grid did exactly those 10 units. The old divide-first
        // order computed (10 / 4) × 4 = 8, dropping 2 units.
        assert_eq!(grid_total(10, 4, 4), 10);
        // Multiply-first truncates at most once overall, not per class.
        assert_eq!(grid_total(7, 3, 2), 10); // 7·3/2 = 10 (true 10.5)
        assert_eq!(grid_total(0, 1000, 3), 0);
        // Widened arithmetic: near-max totals neither overflow nor wrap.
        assert_eq!(grid_total(u64::MAX, 1, 1), u64::MAX);
        assert_eq!(grid_total(u64::MAX / 2, 4, 2), u64::MAX - 1);
        // Pathological products past u64 saturate instead of wrapping.
        assert_eq!(grid_total(1 << 62, 8, 2), u64::MAX);
    }

    #[test]
    fn wave_stats_represent_the_dominant_class() {
        let dev = Device::h100_sxm5();
        let mut k = Kernel::new("multi-class");
        k.smem_bytes = 1024;
        // Param 0 is the per-class trip count: a single short epilogue
        // CTA leads the class list, followed by the dominant main grid.
        k.classes = vec![
            tawa_wsir::CtaClass {
                params: vec![2],
                multiplicity: 1,
            },
            tawa_wsir::CtaClass {
                params: vec![256],
                multiplicity: 1024,
            },
        ];
        k.add_warp_group(
            Role::Consumer,
            64,
            vec![Instr::loop_param(
                0,
                vec![
                    Instr::WgmmaIssue {
                        m: 64,
                        n: 64,
                        k: 16,
                        dtype: MmaDtype::F16,
                    },
                    Instr::WgmmaWait { pending: 0 },
                ],
            )],
        );
        let r = simulate(&k, &dev).unwrap();
        // The representative wave must be the big class: per-wave tensor
        // work reflects 256 iterations × occupancy, not the epilogue's 2.
        let flops_per_iter = 2 * 64 * 64 * 16;
        assert_eq!(
            r.wave_stats.tc_flops,
            r.occupancy as u64 * 256 * flops_per_iter,
            "wave_stats must describe the dominant class"
        );
        // And tc_utilization is derived from that same dominant wave.
        let expect_util = r.wave_stats.tc_busy as f64 / r.wave_stats.cycles as f64;
        assert!((r.tc_utilization - expect_util).abs() < 1e-12);
        // Grid totals still conserve work across both classes.
        assert_eq!(r.tc_flops, (1024 * 256 + 2) * flops_per_iter);
    }

    #[test]
    fn parallel_class_simulation_is_bit_identical() {
        let dev = Device::h100_sxm5();
        let mut k = Kernel::new("multi-class");
        k.smem_bytes = 2048;
        // Several classes with distinct trip counts so the per-class
        // engine runs genuinely differ.
        k.classes = (1..=6)
            .map(|i| tawa_wsir::CtaClass {
                params: vec![i * 17],
                multiplicity: 100 * i + 1,
            })
            .collect();
        k.add_warp_group(
            Role::Consumer,
            64,
            vec![Instr::loop_param(
                0,
                vec![
                    Instr::WgmmaIssue {
                        m: 64,
                        n: 64,
                        k: 16,
                        dtype: MmaDtype::F16,
                    },
                    Instr::WgmmaWait { pending: 0 },
                    Instr::GlobalStore { bytes: 4096 },
                ],
            )],
        );
        k.useful_flops = 1e12;
        let seq = simulate_with(
            &k,
            &dev,
            &SimOptions {
                parallel_classes: false,
            },
        )
        .unwrap();
        let par = simulate_with(
            &k,
            &dev,
            &SimOptions {
                parallel_classes: true,
            },
        )
        .unwrap();
        assert_eq!(seq, par);
        // Float fields are bit-identical, not merely approximately equal.
        assert_eq!(seq.tflops.to_bits(), par.tflops.to_bits());
        assert_eq!(seq.total_time_us.to_bits(), par.total_time_us.to_bits());
    }

    #[test]
    fn parallel_deadlock_matches_sequential_error() {
        let dev = Device::h100_sxm5();
        let mut k = Kernel::new("dl-multi");
        k.smem_bytes = 1024;
        k.classes = (0..4)
            .map(|_| tawa_wsir::CtaClass {
                params: Vec::new(),
                multiplicity: 1,
            })
            .collect();
        let full = k.add_barrier("full", 1);
        let empty = k.add_barrier("empty", 1); // no credit: deadlock
        k.add_warp_group(
            Role::Producer,
            24,
            vec![
                Instr::MbarWait { bar: empty },
                Instr::TmaLoad {
                    bytes: 1024,
                    bar: full,
                },
            ],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::MbarWait { bar: full },
                Instr::MbarArrive { bar: empty },
            ],
        );
        let seq = simulate_with(
            &k,
            &dev,
            &SimOptions {
                parallel_classes: false,
            },
        );
        let par = simulate_with(
            &k,
            &dev,
            &SimOptions {
                parallel_classes: true,
            },
        );
        match (seq, par) {
            (Err(SimError::Deadlock(a)), Err(SimError::Deadlock(b))) => assert_eq!(a, b),
            other => panic!("expected matching deadlocks, got {other:?}"),
        }
    }

    #[test]
    fn launch_overhead_hurts_short_kernels_more() {
        let dev = Device::h100_sxm5();
        let mut short = ws_gemm_kernel(132, 4, false);
        let mut long = ws_gemm_kernel(132, 256, false);
        short.launch_overhead_ns = 5500;
        long.launch_overhead_ns = 5500;
        let rs = simulate(&short, &dev).unwrap();
        let rl = simulate(&long, &dev).unwrap();
        let short_ratio = rs.total_time_us / rs.kernel_time_us;
        let long_ratio = rl.total_time_us / rl.kernel_time_us;
        assert!(short_ratio > long_ratio);
    }

    #[test]
    fn byte_and_cycle_magnitudes_past_u64_are_an_overflow() {
        use tawa_wsir::{analyze, deserialize_kernel, serialize_kernel};
        // Two 2^63-byte loads into one barrier of arrive count 2: the
        // phase's transaction bytes, and `bytes_loaded`, do not fit 64 bits.
        // Read back from its serialized form, as a cached kernel would be.
        let mut huge = Kernel::new("huge_tma");
        huge.uniform_grid(1);
        let full = huge.add_barrier("full", 2);
        let load = Instr::TmaLoad {
            bytes: 1 << 63,
            bar: full,
        };
        huge.add_warp_group(Role::Producer, 24, vec![load.clone(), load]);
        huge.add_warp_group(Role::Consumer, 240, vec![Instr::MbarWait { bar: full }]);
        let huge = deserialize_kernel(&serialize_kernel(&huge)).unwrap();
        // Two delays whose sum does not fit a 64-bit clock.
        let mut long = Kernel::new("long_delay");
        long.uniform_grid(1);
        let delay = |cycles| Instr::Delay { cycles };
        long.add_warp_group(Role::Uniform, 128, vec![delay(u64::MAX), delay(1)]);
        let dev = Device::h100_sxm5();
        for k in [huge, long] {
            let r = simulate(&k, &dev);
            assert!(matches!(r, Err(SimError::Overflow)), "{}: {r:?}", k.name);
            // The static gate saturates where it would have wrapped.
            analyze(&k);
        }
    }
}
