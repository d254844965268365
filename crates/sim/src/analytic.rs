//! Analytic cost model: resource and pipeline *bounds* without running
//! the engine.
//!
//! The discrete-event engine ([`crate::engine`]) answers "how fast is
//! this kernel" exactly; this module answers "how fast *could* it
//! possibly be" in microseconds of host time instead of milliseconds of
//! simulation — a bound, in the analytic-optimization spirit of *Optimal
//! Software Pipelining and Warp Specialization for Tensor Core GPUs*. It
//! neither ranks nor prunes autotune candidates (every sweep simulates
//! every candidate); [`perf_model`] distills it into the facts the
//! performance lints (`tawa_wsir::analyze::perf`) are judged against.
//!
//! The estimate is the max of four *lower bounds on time* (equivalently,
//! an upper bound on TFLOP/s):
//!
//! 1. **Tensor-core issue bound** — total WGMMA cycles across the grid
//!    divided over the active SMs; the TC pipe is FIFO per SM.
//! 2. **Memory-bandwidth bound** — total bytes moved over the per-SM
//!    load/store bandwidths the engine itself provisions (including the
//!    persistent-kernel L2 bonus).
//! 3. **Per-actor serial bound** — each warp group executes its stream
//!    serially; instruction issue costs, synchronous latencies and
//!    forced WGMMA drains (`P = 1` pays [`Device::wgmma_drain_cycles`]
//!    every iteration) are unavoidable no matter how well the pipeline
//!    overlaps. Waits on mbarriers are assumed free (producer ran
//!    ahead), which keeps the bound optimistic.
//! 4. **Ring recurrence bound** — the aref ring's cross-warp-group
//!    dependency cycle: a producer's `TmaLoad` into slot `s` cannot
//!    reissue until the consumer's `MbarArrive` releases `s`, so each
//!    execution of the steady loop body costs at least one full
//!    `TMA transfer → transaction latency → consumer wait-to-arrive
//!    path` traversal. Shallow rings (`D = 1`) pay this per iteration;
//!    deeper rings amortize it over `D` iterations — the mechanism
//!    behind Fig. 11's D dimension, visible here without simulating.
//!
//! Every term is *optimistic* (contention, wave dispatch gaps, CTA
//! start costs and wake latencies are mostly ignored), so the derived
//! [`AnalyticEstimate::tflops_upper_bound`] dominates the simulated
//! throughput (checked on every Fig. 11 candidate in
//! `tests/e2e_fast_forward.rs`).
//!
//! ## Versioning
//!
//! The model carries its own [`ANALYTIC_MODEL_VERSION`], independent of
//! [`crate::COST_MODEL_VERSION`]. The analytic estimate only bounds — it
//! never produces a number that is persisted, so it must **not** feed the
//! `.sim` disk-cache key: refining the analytic model must not invalidate
//! byte-identical simulation reports.

use tawa_wsir::{BarId, Count, Instr, Kernel, PerfModel, Role};

use crate::device::Device;

/// Version of the analytic cost model. Bump when the estimate changes
/// enough to alter a bound or a perf-lint verdict. Deliberately
/// separate from [`crate::COST_MODEL_VERSION`]: the analytic model never
/// keys persisted simulation outcomes (see the module docs).
pub const ANALYTIC_MODEL_VERSION: u32 = 1;

/// Resource and pipeline bounds for one kernel on one device, derived
/// from the lowered WSIR without running the engine.
///
/// All `*_cycles` fields are lower bounds on total device cycles for the
/// whole launch; [`AnalyticEstimate::bound_cycles`] is their max and
/// [`AnalyticEstimate::tflops_upper_bound`] the throughput it implies.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticEstimate {
    /// Resident CTAs per SM ([`Device::occupancy`]); `0` means the
    /// kernel cannot be placed and every other field is zeroed.
    pub occupancy: u32,
    /// Fraction of per-SM shared memory staged at this occupancy
    /// (`smem_bytes × occupancy / smem_per_sm`) — the staging pressure
    /// deeper aref rings trade occupancy against.
    pub smem_pressure: f64,
    /// Tensor-core issue bound: WGMMA cycles across the grid per SM.
    pub tc_bound_cycles: f64,
    /// Memory-bandwidth bound: bytes moved over the engine's per-SM
    /// load/store bandwidth provisioning.
    pub mem_bound_cycles: f64,
    /// Per-actor serial bound: the slowest warp group's unavoidable
    /// serial execution, scaled across waves.
    pub actor_bound_cycles: f64,
    /// Aref-ring recurrence bound: cross-warp-group dependency cycles
    /// per steady-loop execution, scaled across waves.
    pub ring_bound_cycles: f64,
    /// Max of the four bounds: a lower bound on device cycles.
    pub bound_cycles: f64,
    /// Lower bound on end-to-end time (device cycles at the device
    /// clock plus host launch overhead), nanoseconds.
    pub time_lower_bound_ns: f64,
    /// Upper bound on achievable throughput in TFLOP/s
    /// (`useful_flops / time_lower_bound_ns`); infinite when the kernel
    /// reports no time at all, zero when it cannot be placed.
    pub tflops_upper_bound: f64,
}

/// Which of the four analytic bounds is binding — the estimate's verdict
/// on *what kind of kernel this is* (compute-, bandwidth-, serialization-
/// or pipeline-limited). The perf lints key their preconditions off this:
/// deepening a ring only helps a [`BoundKind::Ring`]-bound kernel, and
/// more occupancy only helps when per-CTA serialization
/// ([`BoundKind::Actor`] / [`BoundKind::Ring`]) is binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// Tensor-core issue throughput.
    TensorCore,
    /// Memory bandwidth (L2/HBM provisioning).
    Memory,
    /// Per-actor serial execution (issue costs, drains, latencies).
    Actor,
    /// Aref-ring recurrence (pipeline depth).
    Ring,
}

impl AnalyticEstimate {
    /// Whether the kernel can be placed at all (`occupancy > 0`).
    pub fn feasible(&self) -> bool {
        self.occupancy > 0
    }

    /// The binding bound. Ties resolve in resource order (tensor core,
    /// memory, actor, ring); meaningless for unplaceable kernels, whose
    /// bounds are all zero.
    pub fn bottleneck(&self) -> BoundKind {
        let mut kind = BoundKind::TensorCore;
        let mut best = self.tc_bound_cycles;
        for (cycles, candidate) in [
            (self.mem_bound_cycles, BoundKind::Memory),
            (self.actor_bound_cycles, BoundKind::Actor),
            (self.ring_bound_cycles, BoundKind::Ring),
        ] {
            if cycles > best {
                best = cycles;
                kind = candidate;
            }
        }
        kind
    }
}

/// Per-CTA work totals accumulated by walking one class's streams.
#[derive(Debug, Clone, Copy, Default)]
struct ClassWork {
    load_bytes: f64,
    store_bytes: f64,
    tc_cycles: f64,
}

/// Walk context: the device plus the effective per-SM bandwidths the
/// engine would provision for this launch.
struct Ctx<'d> {
    device: &'d Device,
    load_bw: f64,
    store_bw: f64,
}

/// [`Count::resolve`] that tolerates out-of-range parameter indices
/// (returns 0) — the estimator must never panic on a kernel the
/// validator would reject anyway.
fn resolve(count: Count, params: &[u64]) -> u64 {
    match count {
        Count::Const(c) => c,
        Count::Param(i) => params.get(i).copied().unwrap_or(0),
    }
}

/// Accumulates per-CTA bytes moved and tensor-core cycles for one
/// instruction stream (loop bodies weighted by resolved trip counts).
fn class_work(body: &[Instr], params: &[u64], device: &Device, out: &mut ClassWork) {
    for instr in body {
        match *instr {
            Instr::Loop { count, ref body } => {
                let trips = resolve(count, params) as f64;
                let mut inner = ClassWork::default();
                class_work(body, params, device, &mut inner);
                out.load_bytes += trips * inner.load_bytes;
                out.store_bytes += trips * inner.store_bytes;
                out.tc_cycles += trips * inner.tc_cycles;
            }
            Instr::TmaLoad { bytes, .. }
            | Instr::CpAsync { bytes }
            | Instr::GlobalLoad { bytes } => {
                out.load_bytes += bytes as f64;
            }
            Instr::TmaStore { bytes } | Instr::GlobalStore { bytes } => {
                out.store_bytes += bytes as f64;
            }
            Instr::WgmmaIssue { m, n, k, dtype } => {
                let flops = 2.0 * m as f64 * n as f64 * k as f64;
                out.tc_cycles += (flops / device.tc_flops_per_cycle(dtype)).ceil();
            }
            _ => {}
        }
    }
}

/// Optimistic serial execution time of one instruction stream: every
/// wait that *could* be satisfied is, every shared resource is free, but
/// issue costs, synchronous latencies and intra-stream WGMMA data
/// dependencies are paid. A true lower bound on the actor's execution
/// time in the engine.
///
/// Loop bodies are costed once from a fresh pipeline state (optimistic
/// across iterations — carried in-flight WGMMA groups could only make an
/// iteration slower) and multiplied by the trip count.
fn serial_cycles(body: &[Instr], params: &[u64], ctx: &Ctx<'_>) -> f64 {
    let issue = ctx.device.instr_issue_cycles as f64;
    let mut clock = 0.0_f64;
    // In-flight WGMMA completion lower bounds, FIFO (the TC pipe
    // retires in issue order).
    let mut wgmma: Vec<f64> = Vec::new();
    for instr in body {
        match *instr {
            Instr::Loop { count, ref body } => {
                let trips = resolve(count, params) as f64;
                clock += ctx.device.loop_overhead_cycles as f64
                    + trips * serial_cycles(body, params, ctx);
            }
            Instr::TmaLoad { .. } | Instr::TmaStore { .. } => clock += issue,
            Instr::CpAsync { bytes } => {
                clock += ((bytes as f64 / 2048.0) * ctx.device.cp_async_issue_cycles_per_2kb)
                    .ceil()
                    .max(1.0);
            }
            // Optimistic: a blocked cp.async wait resumes with no issue
            // charge in the engine, so the sound lower bound is zero.
            Instr::CpAsyncWait { .. } => {}
            Instr::MbarArrive { .. } | Instr::MbarWait { .. } | Instr::Syncthreads => {
                clock += issue;
            }
            Instr::WgmmaIssue { m, n, k, dtype } => {
                let flops = 2.0 * m as f64 * n as f64 * k as f64;
                let dur = (flops / ctx.device.tc_flops_per_cycle(dtype)).ceil();
                clock += issue;
                wgmma.push(clock + dur);
            }
            Instr::WgmmaWait { pending } => {
                let pending = pending as usize;
                if wgmma.len() > pending {
                    let retire = wgmma.len() - pending;
                    let target = wgmma[retire - 1];
                    wgmma.drain(..retire);
                    if target > clock {
                        // The wait actually blocks: the engine resumes at
                        // the retiring group's completion plus the drain.
                        clock = target + ctx.device.wgmma_drain_cycles as f64;
                    } else {
                        clock += issue;
                    }
                } else {
                    clock += issue;
                }
            }
            Instr::CudaOp { flops, sfu, .. } => {
                let work = flops as f64 / ctx.device.cuda_flops_per_cycle
                    + sfu as f64 / ctx.device.sfu_ops_per_cycle;
                clock += work.max(1.0);
            }
            Instr::GlobalStore { bytes } => clock += (bytes as f64 / 512.0).ceil(),
            Instr::GlobalLoad { bytes } => {
                clock += issue
                    + (bytes as f64 / ctx.load_bw).ceil()
                    + ctx.device.global_load_latency_cycles as f64;
            }
            Instr::SetMaxNReg { .. } => {}
            Instr::Delay { cycles } => clock += cycles as f64,
        }
    }
    clock
}

/// One loop body discovered in a warp group, with its resolved trip
/// count and the product of enclosing trip counts.
struct LoopSite<'k> {
    body: &'k [Instr],
    total_execs: f64,
}

fn collect_loops<'k>(body: &'k [Instr], params: &[u64], outer: f64, out: &mut Vec<LoopSite<'k>>) {
    for instr in body {
        if let Instr::Loop { count, body } = instr {
            let trips = resolve(*count, params) as f64;
            out.push(LoopSite {
                body,
                total_execs: outer * trips,
            });
            collect_loops(body, params, outer * trips, out);
        }
    }
}

/// One aref ring candidate found in a producer-side loop body: the actor
/// waits on `empty`, then feeds `full` with `bytes` of TMA traffic per
/// body execution.
struct RingSite {
    empty: BarId,
    full: BarId,
    bytes: f64,
    total_execs: f64,
}

/// Scans a loop body for the producer half of the aref protocol:
/// `MbarWait{empty}` followed by `TmaLoad{→ full}` (the canonical
/// lowering of Fig. 4's producer). All TMA bytes posted to the same
/// `full` barrier within the body count toward the ring's transfer time.
fn ring_sites(site: &LoopSite<'_>, out: &mut Vec<RingSite>) {
    for (i, instr) in site.body.iter().enumerate() {
        let Instr::MbarWait { bar: empty } = *instr else {
            continue;
        };
        // First TmaLoad after the wait names the paired full barrier.
        let Some(full) = site.body[i + 1..].iter().find_map(|ins| match *ins {
            Instr::TmaLoad { bar, .. } => Some(bar),
            _ => None,
        }) else {
            continue;
        };
        let bytes: u64 = site
            .body
            .iter()
            .filter_map(|ins| match *ins {
                Instr::TmaLoad { bytes, bar } if bar == full => Some(bytes),
                _ => None,
            })
            .sum();
        if bytes > 0 {
            out.push(RingSite {
                empty,
                full,
                bytes: bytes as f64,
                total_execs: site.total_execs,
            });
        }
    }
}

/// Serial lower bound of a consumer's path from (exclusive) its wait on
/// `full` to (inclusive) its release arrive on `empty`, searching the
/// loop body circularly — fine-grained MMA pipelines (`P ≥ 2`) release a
/// slot from a *later* position in the unrolled body, possibly wrapping.
fn wait_to_arrive_path(
    site: &LoopSite<'_>,
    full: BarId,
    empty: BarId,
    params: &[u64],
    ctx: &Ctx<'_>,
) -> Option<f64> {
    let wait = site
        .body
        .iter()
        .position(|ins| matches!(*ins, Instr::MbarWait { bar } if bar == full))?;
    let arrive_after = site.body[wait + 1..]
        .iter()
        .position(|ins| matches!(*ins, Instr::MbarArrive { bar } if bar == empty));
    match arrive_after {
        Some(off) => {
            let end = wait + 1 + off;
            Some(serial_cycles(&site.body[wait + 1..=end], params, ctx))
        }
        None => {
            // Wrap: the release happens in the *next* execution of the
            // body. Only the tail after the wait is charged: the body's
            // final execution continues past the loop instead of wrapping
            // into the head, and a sound per-execution path must lower-
            // bound every continuation.
            site.body[..wait]
                .iter()
                .any(|ins| matches!(*ins, Instr::MbarArrive { bar } if bar == empty))
                .then(|| serial_cycles(&site.body[wait + 1..], params, ctx))
        }
    }
}

/// Per-CTA ring recurrence bound for one class: the max over all
/// detected aref rings of `(executions − credit slack) × cycle latency`.
fn ring_bound(kernel: &Kernel, params: &[u64], ctx: &Ctx<'_>) -> f64 {
    let issue = ctx.device.instr_issue_cycles as f64;
    let mut bound = 0.0_f64;
    let mut producer_loops: Vec<Vec<LoopSite<'_>>> = Vec::new();
    for wg in &kernel.warp_groups {
        let mut sites = Vec::new();
        collect_loops(&wg.body, params, 1.0, &mut sites);
        producer_loops.push(sites);
    }
    for (a, _) in kernel.warp_groups.iter().enumerate() {
        let mut rings = Vec::new();
        for site in &producer_loops[a] {
            ring_sites(site, &mut rings);
        }
        for ring in &rings {
            // Transfer time of this slot's payload plus the transaction
            // latency: the full barrier cannot complete earlier.
            let tma =
                issue + (ring.bytes / ctx.load_bw).ceil() + ctx.device.tma_latency_cycles as f64;
            for (b, _) in kernel.warp_groups.iter().enumerate() {
                if b == a {
                    continue;
                }
                for site in &producer_loops[b] {
                    // Steady-state partners only: the recurrence multiplies
                    // the cycle by the ring's execution count, which is
                    // sound only if the consumer walks this path equally
                    // often. Pairing a steady-loop ring with a coarser
                    // enclosing site (e.g. a persistent tile loop whose
                    // body *contains* the steady loop) would multiply a
                    // whole-tile path by the per-iteration count — a
                    // massive overcount, not a bound.
                    if site.total_execs != ring.total_execs {
                        continue;
                    }
                    let Some(path) = wait_to_arrive_path(site, ring.full, ring.empty, params, ctx)
                    else {
                        continue;
                    };
                    let cycle = tma + path;
                    // The empty barrier's initial credit lets the
                    // producer run ahead by that many phases; one more
                    // execution of slack covers pipeline fill.
                    let credit = kernel
                        .barriers
                        .get(ring.empty.0 as usize)
                        .map(|bar| bar.init_phases as f64)
                        .unwrap_or(0.0);
                    let execs = (ring.total_execs - 1.0 - credit).max(0.0);
                    bound = bound.max(execs * cycle);
                }
            }
        }
    }
    bound
}

/// Estimates resource and pipeline bounds for `kernel` on `device`
/// without running the engine. See the module docs for the four bounds
/// and their soundness discipline.
pub fn estimate(kernel: &Kernel, device: &Device) -> AnalyticEstimate {
    let occ = device.occupancy(kernel);
    if occ == 0 {
        return AnalyticEstimate {
            occupancy: 0,
            smem_pressure: kernel.smem_bytes as f64 / device.smem_per_sm.max(1) as f64,
            tc_bound_cycles: 0.0,
            mem_bound_cycles: 0.0,
            actor_bound_cycles: 0.0,
            ring_bound_cycles: 0.0,
            bound_cycles: 0.0,
            time_lower_bound_ns: 0.0,
            tflops_upper_bound: 0.0,
        };
    }

    let grid = kernel.grid_size();
    let active_sms = grid.min(device.sms as u64).max(1) as f64;
    let l2_bonus = if kernel.persistent {
        device.persistent_l2_bonus
    } else {
        1.0
    };
    // The same per-SM provisioning the scheduler hands the engine
    // (crate::run): the analytic bounds and the simulation agree on what
    // bandwidth exists.
    let ctx = Ctx {
        device,
        load_bw: (device.l2_bytes_per_cycle / active_sms).min(device.tma_engine_bytes_per_cycle)
            * l2_bonus,
        store_bw: device.hbm_bytes_per_cycle / active_sms,
    };

    let slots_per_wave = device.sms as u64 * occ as u64;
    let mut tc_bound = 0.0_f64;
    let mut mem_bound = 0.0_f64;
    let mut actor_bound = 0.0_f64;
    let mut ring_bound_total = 0.0_f64;
    for class in &kernel.classes {
        let mut work = ClassWork::default();
        for wg in &kernel.warp_groups {
            class_work(&wg.body, &class.params, device, &mut work);
        }
        let mult = class.multiplicity as f64;
        tc_bound += mult * work.tc_cycles / active_sms;
        mem_bound +=
            mult * (work.load_bytes / ctx.load_bw + work.store_bytes / ctx.store_bw) / active_sms;

        let per_cta_serial = kernel
            .warp_groups
            .iter()
            .map(|wg| serial_cycles(&wg.body, &class.params, &ctx))
            .fold(0.0_f64, f64::max);
        let per_cta_ring = ring_bound(kernel, &class.params, &ctx);
        if kernel.persistent {
            // Persistent classes run concurrently on disjoint SM slots;
            // the launch ends when the slowest finishes.
            actor_bound = actor_bound.max(per_cta_serial);
            ring_bound_total = ring_bound_total.max(per_cta_ring);
        } else {
            // Non-persistent classes execute wave after wave.
            let waves = class.multiplicity.div_ceil(slots_per_wave.max(1)) as f64;
            actor_bound += waves * per_cta_serial;
            ring_bound_total += waves * per_cta_ring;
        }
    }

    let bound = tc_bound
        .max(mem_bound)
        .max(actor_bound)
        .max(ring_bound_total);
    let time_ns = device.cycles_to_ns(bound) + kernel.launch_overhead_ns as f64;
    let tflops = if kernel.useful_flops <= 0.0 {
        0.0
    } else if time_ns > 0.0 {
        kernel.useful_flops / (time_ns * 1e-9) / 1e12
    } else {
        f64::INFINITY
    };
    AnalyticEstimate {
        occupancy: occ,
        smem_pressure: kernel.smem_bytes.saturating_mul(occ as u64) as f64
            / device.smem_per_sm.max(1) as f64,
        tc_bound_cycles: tc_bound,
        mem_bound_cycles: mem_bound,
        actor_bound_cycles: actor_bound,
        ring_bound_cycles: ring_bound_total,
        bound_cycles: bound,
        time_lower_bound_ns: time_ns,
        tflops_upper_bound: tflops,
    }
}

/// Admissible producer/consumer per-iteration cost ratio before the
/// `unbalanced-stages` lint fires: a producer may run up to 50% over the
/// consumer before the model considers the loads unhideable (TMA latency
/// and pipeline fill absorb modest imbalance).
pub const OVERLAP_WINDOW: f64 = 1.5;

/// The resource that caps [`Device::occupancy`] for `kernel`: the name of
/// the smallest per-SM budget quotient (`smem`, `regs`, `threads` or
/// hardware CTA `slots`).
fn occupancy_limiter(kernel: &Kernel, device: &Device) -> &'static str {
    let quotients = [
        ("smem", device.smem_per_sm / kernel.smem_bytes.max(1)),
        ("regs", device.regs_per_sm / kernel.regs_per_cta().max(1)),
        (
            "threads",
            device.max_threads_per_sm as u64 / kernel.threads_per_cta().max(1) as u64,
        ),
        ("slots", device.max_ctas_per_sm as u64),
    ];
    quotients
        .iter()
        .min_by_key(|(_, q)| *q)
        .map(|(name, _)| *name)
        .unwrap_or("slots")
}

/// Per-iteration cost of a warp group's steady loop (the loop with the
/// most total executions): the larger of its serial lower bound and its
/// throughput demand (`transfer` bytes over the provisioned bandwidth for
/// load stages, tensor-core cycles for compute stages).
fn stage_cost_per_iter(body: &[Instr], params: &[u64], ctx: &Ctx<'_>) -> f64 {
    let mut sites = Vec::new();
    collect_loops(body, params, 1.0, &mut sites);
    let Some(steady) = sites
        .iter()
        .max_by(|a, b| a.total_execs.total_cmp(&b.total_execs))
    else {
        return 0.0;
    };
    let mut work = ClassWork::default();
    class_work(steady.body, params, ctx.device, &mut work);
    // One steady-body execution moves the bytes and issues the WGMMAs of
    // all slots it unrolls; its trip count already excludes the unroll.
    let throughput =
        (work.load_bytes / ctx.load_bw + work.store_bytes / ctx.store_bw).max(work.tc_cycles);
    serial_cycles(steady.body, params, ctx).max(throughput)
}

/// Builds the [`PerfModel`] for `kernel` on `device`: the analytic facts
/// `tawa_wsir::analyze_kernel` needs to decide the model-gated perf lints
/// (`single-buffered-pipeline`, `unbalanced-stages`, `occupancy-capped`).
///
/// The producer/consumer stage costs come from the representative CTA
/// class (largest multiplicity); `Uniform` warp groups contribute to both
/// stages, which keeps the ratio at 1 and the stage lints quiet for
/// non-specialized kernels.
pub fn perf_model(kernel: &Kernel, device: &Device) -> PerfModel {
    let est = estimate(kernel, device);
    let bottleneck = est.bottleneck();

    let grid = kernel.grid_size();
    let active_sms = grid.min(device.sms as u64).max(1) as f64;
    let l2_bonus = if kernel.persistent {
        device.persistent_l2_bonus
    } else {
        1.0
    };
    let ctx = Ctx {
        device,
        load_bw: (device.l2_bytes_per_cycle / active_sms).min(device.tma_engine_bytes_per_cycle)
            * l2_bonus,
        store_bw: device.hbm_bytes_per_cycle / active_sms,
    };

    let params: &[u64] = kernel
        .classes
        .iter()
        .max_by_key(|c| c.multiplicity)
        .map(|c| c.params.as_slice())
        .unwrap_or(&[]);
    let mut producer = 0.0_f64;
    let mut consumer = 0.0_f64;
    let mut consumers = 0u32;
    for wg in &kernel.warp_groups {
        let cost = stage_cost_per_iter(&wg.body, params, &ctx);
        match wg.role {
            Role::Producer => producer = producer.max(cost),
            Role::Consumer => {
                consumer = consumer.max(cost);
                consumers += 1;
            }
            Role::Uniform => {
                producer = producer.max(cost);
                consumer = consumer.max(cost);
                consumers += 1;
            }
        }
    }

    PerfModel {
        producer_cycles_per_iter: producer,
        consumer_cycles_per_iter: consumer,
        overlap_window: OVERLAP_WINDOW,
        ctas_per_sm: est.occupancy,
        // Two resident consumer warp groups keep the WGMMA pipe saturated
        // (the paper's ping-pong rationale): a CTA carrying fewer needs
        // proportionally more residency.
        saturation_ctas_per_sm: 2u32.div_ceil(consumers.max(1)),
        occupancy_limiter: occupancy_limiter(kernel, device).to_string(),
        smem_per_sm: device.smem_per_sm,
        ring_is_bottleneck: bottleneck == BoundKind::Ring,
        overlap_is_bottleneck: matches!(bottleneck, BoundKind::Actor | BoundKind::Ring),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::simulate;
    use tawa_wsir::MmaDtype;

    /// Warp-specialized GEMM-shaped kernel with ring depth `d` and MMA
    /// pipeline depth `p` (the two Fig. 11 axes), hand-lowered the same
    /// way the compiler unrolls the steady loop by `d`.
    fn ws_kernel(grid: u64, iters: u64, d: usize, p: usize) -> Kernel {
        assert!(p <= d, "P > D is infeasible");
        let mut k = Kernel::new("ws");
        k.uniform_grid(grid);
        k.smem_bytes = d as u64 * 2 * 128 * 64 * 2 + 128 * 128 * 2 + 1024;
        let mut full = Vec::new();
        let mut empty = Vec::new();
        for s in 0..d {
            full.push(k.add_barrier(&format!("full{s}"), 1));
            empty.push(k.add_barrier_init(&format!("empty{s}"), 1, 1));
        }
        let mut pbody = Vec::new();
        let mut cbody = Vec::new();
        for s in 0..d {
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
            cbody.push(Instr::WgmmaWait {
                pending: (p - 1) as u32,
            });
            // Release the slot the retiring WGMMA consumed: `p - 1`
            // positions back, as the fine-grained pipeline lowers it.
            let rel = (s + d - (p - 1)) % d;
            cbody.push(Instr::MbarArrive { bar: empty[rel] });
        }
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(iters / d as u64, pbody)],
        );
        let mut consumer = vec![Instr::loop_const(iters / d as u64, cbody)];
        consumer.push(Instr::GlobalStore {
            bytes: 128 * 128 * 2,
        });
        k.add_warp_group(Role::Consumer, 232, consumer);
        k.useful_flops = (grid * iters * 2 * 128 * 128 * 64) as f64;
        k
    }

    #[test]
    fn upper_bound_dominates_simulation() {
        let dev = Device::h100_sxm5();
        for (d, p) in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)] {
            let k = ws_kernel(528, 48, d, p);
            let est = estimate(&k, &dev);
            let sim = simulate(&k, &dev).unwrap();
            assert!(
                est.tflops_upper_bound >= sim.tflops,
                "D={d} P={p}: analytic UB {} < simulated {}",
                est.tflops_upper_bound,
                sim.tflops
            );
        }
    }

    #[test]
    fn deeper_ring_scores_higher() {
        let dev = Device::h100_sxm5();
        let shallow = estimate(&ws_kernel(132, 48, 1, 1), &dev);
        let deep = estimate(&ws_kernel(132, 48, 3, 2), &dev);
        assert!(
            deep.tflops_upper_bound > shallow.tflops_upper_bound,
            "D=3 UB {} must beat D=1 UB {}",
            deep.tflops_upper_bound,
            shallow.tflops_upper_bound
        );
        // The discrimination comes from the ring recurrence: D=1 pays a
        // full TMA + consumer round trip every iteration.
        assert!(shallow.ring_bound_cycles > deep.ring_bound_cycles);
    }

    #[test]
    fn serial_bound_sees_mma_drain_at_p1() {
        let dev = Device::h100_sxm5();
        let p1 = estimate(&ws_kernel(132, 48, 3, 1), &dev);
        let p2 = estimate(&ws_kernel(132, 48, 3, 2), &dev);
        assert!(
            p1.actor_bound_cycles > p2.actor_bound_cycles,
            "P=1 serial bound {} must exceed P=2 {}",
            p1.actor_bound_cycles,
            p2.actor_bound_cycles
        );
    }

    #[test]
    fn infeasible_kernel_scores_zero() {
        let dev = Device::h100_sxm5();
        let mut k = ws_kernel(132, 16, 2, 1);
        k.smem_bytes = 4 * 1024 * 1024;
        let est = estimate(&k, &dev);
        assert!(!est.feasible());
        assert_eq!(est.tflops_upper_bound, 0.0);
        assert!(est.smem_pressure > 1.0);
    }

    #[test]
    fn bounds_cover_resources_and_pipeline() {
        let dev = Device::h100_sxm5();
        let est = estimate(&ws_kernel(1320, 64, 2, 2), &dev);
        assert!(est.feasible());
        assert!(est.tc_bound_cycles > 0.0);
        assert!(est.mem_bound_cycles > 0.0);
        assert!(est.actor_bound_cycles > 0.0);
        assert!(est.ring_bound_cycles > 0.0);
        let max = est
            .tc_bound_cycles
            .max(est.mem_bound_cycles)
            .max(est.actor_bound_cycles)
            .max(est.ring_bound_cycles);
        assert_eq!(est.bound_cycles, max);
        assert!(est.tflops_upper_bound.is_finite());
        assert!(est.tflops_upper_bound > 0.0);
    }

    #[test]
    fn version_constant_is_independent_of_cost_model() {
        // Compile-time sanity: the analytic model versions separately.
        assert_eq!(ANALYTIC_MODEL_VERSION, 1);
    }

    #[test]
    fn bottleneck_names_the_binding_bound() {
        let dev = Device::h100_sxm5();
        // Single-buffered: the ring recurrence pays a full TMA round trip
        // every iteration and dominates.
        let est = estimate(&ws_kernel(132, 48, 1, 1), &dev);
        assert_eq!(est.bottleneck(), BoundKind::Ring, "{est:?}");
        let max = est
            .tc_bound_cycles
            .max(est.mem_bound_cycles)
            .max(est.actor_bound_cycles)
            .max(est.ring_bound_cycles);
        assert_eq!(max, est.ring_bound_cycles);
    }

    #[test]
    fn perf_model_reflects_ring_depth_and_roles() {
        let dev = Device::h100_sxm5();
        let shallow = perf_model(&ws_kernel(528, 48, 1, 1), &dev);
        assert!(shallow.ring_is_bottleneck, "{shallow:?}");
        assert!(shallow.overlap_is_bottleneck);
        assert!(shallow.ctas_per_sm > 0);
        // A GEMM-shaped steady loop is balanced within the overlap
        // window: only the ring depth is wrong, not the stage split.
        assert!(
            shallow.producer_cycles_per_iter
                <= shallow.overlap_window * shallow.consumer_cycles_per_iter,
            "{shallow:?}"
        );
        let deep = perf_model(&ws_kernel(528, 48, 3, 2), &dev);
        assert!(!deep.ring_is_bottleneck, "{deep:?}");
        assert_eq!(deep.saturation_ctas_per_sm, 2); // one consumer WG
        assert_eq!(deep.smem_per_sm, dev.smem_per_sm);
    }

    #[test]
    fn occupancy_limiter_tracks_the_smallest_budget() {
        let dev = Device::h100_sxm5();
        let mut k = ws_kernel(132, 16, 2, 1);
        k.smem_bytes = 200 * 1024; // 1 CTA/SM by smem
        assert_eq!(perf_model(&k, &dev).occupancy_limiter, "smem");
    }
}
