//! Hand-written warp-specialized WSIR kernel templates.
//!
//! These are the "expert kernels": the instruction sequences a CUTLASS /
//! cuBLAS / ThunderKittens author writes by hand (producer warp group
//! driving TMA behind full/empty mbarriers, consumer warp groups driving
//! WGMMA with bounded in-flight groups). They are deliberately implemented
//! *independently* of the Tawa compiler's code generator: integration tests
//! cross-check that the compiler's output matches the expert template's
//! performance at equal scheduling parameters, which is exactly the claim
//! of the paper's evaluation.

use gpu_sim::Device;
use tawa_frontend::config::{AttentionConfig, GemmConfig};
use tawa_wsir::{Count, CtaClass, Instr, Kernel, MmaDtype, Role};

/// Scheduling strategy for a warp-specialized GEMM.
#[derive(Debug, Clone)]
pub struct GemmStrategy {
    /// Consumer warp groups cooperating on the tile.
    pub coop: usize,
    /// aref/staging ring depth `D`.
    pub d: usize,
    /// MMA pipeline depth `P` (in-flight WGMMA groups).
    pub p: usize,
    /// Persistent (resident-CTA) launch.
    pub persistent: bool,
    /// Host launch overhead (library runtime property), ns.
    pub launch_ns: u64,
    /// Extra per-iteration bubble as a fraction of the MMA time, modelling
    /// an untuned datapath (e.g. a library whose FP8 pipeline lacks the
    /// layout/scheduling work of its FP16 one). 0.0 = fully tuned.
    pub iter_bubble: f64,
}

fn mma_dtype(cfg: &GemmConfig) -> MmaDtype {
    match cfg.dtype {
        tawa_ir::types::DType::F8E4M3 => MmaDtype::F8,
        _ => MmaDtype::F16,
    }
}

/// Registers per thread for a consumer warp group holding an
/// `m_wg × n` f32 accumulator (plus fragment overhead).
fn consumer_regs(m_wg: u64, n: u64, extra_elems: u64) -> Result<u32, String> {
    let regs = ((m_wg * n + extra_elems) / 128 + 48) as u32;
    if regs > 255 {
        return Err(format!(
            "register pressure: {regs} regs/thread for a {m_wg}x{n} accumulator"
        ));
    }
    Ok(regs)
}

/// Builds a warp-specialized GEMM kernel from an expert template.
///
/// # Errors
/// Returns a message when the strategy is infeasible (P > D, register or
/// shared-memory pressure) — callers report such shapes as unsupported.
pub fn ws_gemm(cfg: &GemmConfig, s: &GemmStrategy, device: &Device) -> Result<Kernel, String> {
    if s.p > s.d {
        return Err(format!("P={} > D={} recycles live slots", s.p, s.d));
    }
    let (mt, nt, kt) = (cfg.tile.m as u64, cfg.tile.n as u64, cfg.tile.k as u64);
    let esz = cfg.dtype.size_bytes() as u64;
    let dtype = mma_dtype(cfg);
    let n_iters = cfg.k_tiles();
    let coop = s.coop.clamp(1, 2) as u64;
    if mt % coop != 0 {
        return Err(format!(
            "tile rows {mt} not divisible across {coop} warp groups"
        ));
    }
    let m_wg = (mt / coop) as u32;

    let mut k = Kernel::new(&format!("ws_gemm_{}x{}x{}", cfg.m, cfg.n, cfg.k));
    k.launch_overhead_ns = s.launch_ns;
    k.useful_flops = cfg.flops();

    let slot_bytes = (mt * kt + nt * kt) * esz;
    k.smem_bytes = s.d as u64 * slot_bytes + mt * nt * esz + (2 * s.d as u64) * 8;
    if k.smem_bytes > device.smem_per_sm {
        return Err(format!("smem {} B over budget at D={}", k.smem_bytes, s.d));
    }

    let mut full = Vec::new();
    let mut empty = Vec::new();
    for slot in 0..s.d {
        full.push(k.add_barrier(&format!("full{slot}"), 2));
        empty.push(k.add_barrier_init(&format!("empty{slot}"), coop as u32, 1));
    }

    // Producer: wait-empty → TMA A, TMA B per slot.
    let mut prod_tile = Vec::new();
    prod_tile.push(Instr::SetMaxNReg { regs: 24 });
    emit_ring(&mut prod_tile, n_iters, s.d, 0, |slot, out| {
        out.push(Instr::CudaOp {
            flops: 128,
            sfu: 0,
            label: "addr-gen",
        });
        out.push(Instr::MbarWait { bar: empty[slot] });
        out.push(Instr::TmaLoad {
            bytes: mt * kt * esz,
            bar: full[slot],
        });
        out.push(Instr::TmaLoad {
            bytes: nt * kt * esz,
            bar: full[slot],
        });
    });

    // Consumer: fine-grained MMA pipeline of depth P with drain.
    let bubble = if s.iter_bubble > 0.0 {
        let mma_cycles = (2 * m_wg as u64 * nt * kt) as f64 / device.tc_flops_per_cycle(dtype);
        (mma_cycles * s.iter_bubble).ceil() as u64
    } else {
        0
    };
    let mut cons_tile = Vec::new();
    let p_eff = s.p.min(n_iters.max(1) as usize).max(1);
    let peel = (p_eff - 1) as u64;
    for kk in 0..peel.min(n_iters) {
        let slot = (kk % s.d as u64) as usize;
        cons_tile.push(Instr::MbarWait { bar: full[slot] });
        cons_tile.push(Instr::WgmmaIssue {
            m: m_wg,
            n: nt as u32,
            k: kt as u32,
            dtype,
        });
        if bubble > 0 {
            cons_tile.push(Instr::Delay { cycles: bubble });
        }
    }
    emit_ring(
        &mut cons_tile,
        n_iters - peel.min(n_iters),
        s.d,
        (peel % s.d as u64) as usize,
        |slot, out| {
            out.push(Instr::MbarWait { bar: full[slot] });
            out.push(Instr::WgmmaIssue {
                m: m_wg,
                n: nt as u32,
                k: kt as u32,
                dtype,
            });
            if bubble > 0 {
                out.push(Instr::Delay { cycles: bubble });
            }
            out.push(Instr::WgmmaWait {
                pending: peel as u32,
            });
            let rel = (slot + s.d - (peel as usize % s.d)) % s.d;
            out.push(Instr::MbarArrive { bar: empty[rel] });
        },
    );
    cons_tile.push(Instr::WgmmaWait { pending: 0 });
    for i in 0..peel.min(n_iters) {
        let kk = n_iters - peel + i;
        let slot = (kk % s.d as u64) as usize;
        cons_tile.push(Instr::MbarArrive { bar: empty[slot] });
    }
    cons_tile.push(Instr::CudaOp {
        flops: m_wg as u64 * nt,
        sfu: 0,
        label: "epilogue",
    });
    cons_tile.push(Instr::TmaStore {
        bytes: m_wg as u64 * nt * esz,
    });

    let regs = consumer_regs(m_wg as u64, nt, 0)?;
    finish_grid(
        &mut k,
        device,
        cfg.grid(),
        s.persistent,
        prod_tile,
        cons_tile,
        coop as usize,
        regs,
    );
    Ok(k)
}

/// Scheduling strategy for warp-specialized attention.
#[derive(Debug, Clone)]
pub struct AttentionStrategy {
    /// Consumer warp groups.
    pub coop: usize,
    /// K/V ring depth.
    pub d: usize,
    /// Overlap the softmax with the downstream GEMM (T/C/U pipelining /
    /// FA3 ping-pong). `false` = FA2-style serial stages.
    pub overlap: bool,
    /// Fraction of the softmax cost exposed on the critical path when
    /// overlapping (FA3's hand-scheduled ping-pong exposes less than a
    /// compiler-generated schedule; 1.0 = everything exposed).
    pub softmax_exposure: f64,
    /// Host launch overhead, ns.
    pub launch_ns: u64,
    /// Per-iteration bubble fraction (untuned datapaths), like
    /// [`GemmStrategy::iter_bubble`].
    pub iter_bubble: f64,
}

/// Builds a warp-specialized FlashAttention-style forward kernel.
///
/// # Errors
/// Returns a message for infeasible strategies.
pub fn ws_attention(
    cfg: &AttentionConfig,
    s: &AttentionStrategy,
    device: &Device,
) -> Result<Kernel, String> {
    let (br, bc, dh) = (cfg.block_m as u64, cfg.block_n as u64, cfg.head_dim as u64);
    let esz = cfg.dtype.size_bytes() as u64;
    let dtype = match cfg.dtype {
        tawa_ir::types::DType::F8E4M3 => MmaDtype::F8,
        _ => MmaDtype::F16,
    };
    let coop = s.coop.clamp(1, 2) as u64;
    if br % coop != 0 {
        return Err(format!("Br={br} not divisible across {coop} warp groups"));
    }
    let m_wg = (br / coop) as u32;
    let regs = consumer_regs(m_wg as u64, dh, m_wg as u64 * bc)?;

    let mut k = Kernel::new(&format!(
        "ws_mha_L{}_{}causal",
        cfg.seq_len,
        if cfg.causal { "" } else { "non" }
    ));
    k.launch_overhead_ns = s.launch_ns;
    k.useful_flops = cfg.flops();
    let tile_bytes = bc * dh * esz;
    k.smem_bytes = 2 * s.d as u64 * tile_bytes + br * dh * esz + (4 * s.d as u64) * 8;
    if k.smem_bytes > device.smem_per_sm {
        return Err(format!("smem {} B over budget at D={}", k.smem_bytes, s.d));
    }

    let mut full_k = Vec::new();
    let mut empty_k = Vec::new();
    let mut full_v = Vec::new();
    let mut empty_v = Vec::new();
    for slot in 0..s.d {
        full_k.push(k.add_barrier(&format!("fullK{slot}"), 1));
        empty_k.push(k.add_barrier_init(&format!("emptyK{slot}"), coop as u32, 1));
        full_v.push(k.add_barrier(&format!("fullV{slot}"), 1));
        empty_v.push(k.add_barrier_init(&format!("emptyV{slot}"), coop as u32, 1));
    }
    let qbar = k.add_barrier("q_sync", coop as u32);

    // Per-class KV trip counts (causal rows see fewer KV tiles).
    let trips: Vec<u64> = if cfg.causal {
        (0..cfg.q_tiles()).map(|qt| cfg.kv_tiles(qt)).collect()
    } else {
        vec![cfg.kv_tiles(0)]
    };
    let mults: Vec<u64> = if cfg.causal {
        vec![(cfg.batch * cfg.heads) as u64; trips.len()]
    } else {
        vec![cfg.grid()]
    };

    // Parameterized loops over the per-class trip counts.
    let mut params: Vec<Vec<u64>> = vec![Vec::new(); trips.len()];
    let alloc = |vals: Vec<u64>, params: &mut Vec<Vec<u64>>| -> Count {
        if vals.windows(2).all(|w| w[0] == w[1]) {
            return Count::Const(vals[0]);
        }
        let idx = params[0].len();
        for (p, v) in params.iter_mut().zip(vals) {
            p.push(v);
        }
        Count::Param(idx)
    };

    // Softmax cost per iteration per warp group (matches the IR-derived
    // cost in the compiler: ~6 elementwise passes + 2 reductions over the
    // S tile, exp2 through the SFU).
    let s_elems = m_wg as u64 * bc;
    let softmax_flops = ((6 * s_elems + 2 * s_elems) as f64 * s.softmax_exposure) as u64;
    let softmax_sfu = ((s_elems + m_wg as u64) as f64 * s.softmax_exposure) as u64;
    let bubble = if s.iter_bubble > 0.0 {
        let mma = (2 * m_wg as u64 * bc * dh) as f64 / device.tc_flops_per_cycle(dtype);
        (mma * s.iter_bubble).ceil() as u64
    } else {
        0
    };

    // Producer.
    let mut prod = vec![Instr::SetMaxNReg { regs: 24 }];
    {
        let d = s.d;
        let steady: Vec<u64> = trips.iter().map(|&n| n / d as u64).collect();
        let mut block = Vec::new();
        for i in 0..d {
            block.push(Instr::MbarWait { bar: empty_k[i] });
            block.push(Instr::TmaLoad {
                bytes: tile_bytes,
                bar: full_k[i],
            });
            block.push(Instr::MbarWait { bar: empty_v[i] });
            block.push(Instr::TmaLoad {
                bytes: tile_bytes,
                bar: full_v[i],
            });
        }
        prod.push(Instr::Loop {
            count: alloc(steady, &mut params),
            body: block,
        });
        for i in 0..d.saturating_sub(1) {
            let tails: Vec<u64> = trips
                .iter()
                .map(|&n| u64::from((n % d as u64) > i as u64))
                .collect();
            if tails.iter().all(|&t| t == 0) {
                continue;
            }
            let body = vec![
                Instr::MbarWait { bar: empty_k[i] },
                Instr::TmaLoad {
                    bytes: tile_bytes,
                    bar: full_k[i],
                },
                Instr::MbarWait { bar: empty_v[i] },
                Instr::TmaLoad {
                    bytes: tile_bytes,
                    bar: full_v[i],
                },
            ];
            prod.push(Instr::Loop {
                count: alloc(tails, &mut params),
                body,
            });
        }
    }

    // Consumer.
    let mut cons = Vec::new();
    cons.push(Instr::TmaLoad {
        bytes: br * dh * esz / coop,
        bar: qbar,
    });
    cons.push(Instr::MbarWait { bar: qbar });
    let t_issue = Instr::WgmmaIssue {
        m: m_wg,
        n: bc as u32,
        k: dh as u32,
        dtype,
    };
    let u_issue = Instr::WgmmaIssue {
        m: m_wg,
        n: dh as u32,
        k: bc as u32,
        dtype,
    };
    let softmax = Instr::CudaOp {
        flops: softmax_flops,
        sfu: softmax_sfu,
        label: "softmax",
    };
    if s.overlap {
        // T/C/U pipeline: prologue T0+C0; steady overlaps U_{j-1} with the
        // next T and keeps the softmax off the Tensor Core critical path.
        let d = s.d;
        cons.push(Instr::MbarWait { bar: full_k[0] });
        cons.push(t_issue.clone());
        cons.push(Instr::WgmmaWait { pending: 0 });
        cons.push(Instr::MbarArrive { bar: empty_k[0] });
        cons.push(softmax.clone());
        let steady: Vec<u64> = trips.iter().map(|&n| n - 1).collect();
        let mut block = Vec::new();
        for i in 0..d {
            let slot = (1 + i) % d;
            let prev = (slot + d - 1) % d;
            block.push(Instr::MbarWait { bar: full_v[prev] });
            block.push(u_issue.clone());
            block.push(Instr::MbarWait { bar: full_k[slot] });
            block.push(t_issue.clone());
            if bubble > 0 {
                block.push(Instr::Delay { cycles: bubble });
            }
            block.push(Instr::WgmmaWait { pending: 1 });
            block.push(Instr::MbarArrive { bar: empty_v[prev] });
            block.push(Instr::WgmmaWait { pending: 0 });
            block.push(Instr::MbarArrive { bar: empty_k[slot] });
            block.push(softmax.clone());
        }
        let steady_counts: Vec<u64> = steady.iter().map(|&n| n / d as u64).collect();
        cons.push(Instr::Loop {
            count: alloc(steady_counts, &mut params),
            body: block,
        });
        for i in 0..d.saturating_sub(1) {
            let tails: Vec<u64> = steady
                .iter()
                .map(|&n| u64::from((n % d as u64) > i as u64))
                .collect();
            if tails.iter().all(|&t| t == 0) {
                continue;
            }
            let slot = (1 + i) % d;
            let prev = (slot + d - 1) % d;
            let body = vec![
                Instr::MbarWait { bar: full_v[prev] },
                u_issue.clone(),
                Instr::MbarWait { bar: full_k[slot] },
                t_issue.clone(),
                Instr::WgmmaWait { pending: 1 },
                Instr::MbarArrive { bar: empty_v[prev] },
                Instr::WgmmaWait { pending: 0 },
                Instr::MbarArrive { bar: empty_k[slot] },
                softmax.clone(),
            ];
            cons.push(Instr::Loop {
                count: alloc(tails, &mut params),
                body,
            });
        }
        // Epilogue U_{N-1}: slot (N-1) mod D, one guarded variant each.
        for v in 0..d {
            let guard: Vec<u64> = trips
                .iter()
                .map(|&n| u64::from((n - 1) % d as u64 == v as u64))
                .collect();
            if guard.iter().all(|&g| g == 0) {
                continue;
            }
            let body = vec![
                Instr::MbarWait { bar: full_v[v] },
                u_issue.clone(),
                Instr::WgmmaWait { pending: 0 },
                Instr::MbarArrive { bar: empty_v[v] },
            ];
            cons.push(Instr::Loop {
                count: alloc(guard, &mut params),
                body,
            });
        }
    } else {
        // FA2-style serial stages.
        let d = s.d;
        let mut block = Vec::new();
        for slot in 0..d {
            block.push(Instr::MbarWait { bar: full_k[slot] });
            block.push(t_issue.clone());
            if bubble > 0 {
                block.push(Instr::Delay { cycles: bubble });
            }
            block.push(Instr::WgmmaWait { pending: 0 });
            block.push(Instr::MbarArrive { bar: empty_k[slot] });
            block.push(softmax.clone());
            block.push(Instr::MbarWait { bar: full_v[slot] });
            block.push(u_issue.clone());
            block.push(Instr::WgmmaWait { pending: 0 });
            block.push(Instr::MbarArrive { bar: empty_v[slot] });
        }
        let counts: Vec<u64> = trips.iter().map(|&n| n / d as u64).collect();
        cons.push(Instr::Loop {
            count: alloc(counts, &mut params),
            body: block,
        });
        for i in 0..d.saturating_sub(1) {
            let tails: Vec<u64> = trips
                .iter()
                .map(|&n| u64::from((n % d as u64) > i as u64))
                .collect();
            if tails.iter().all(|&t| t == 0) {
                continue;
            }
            let body = vec![
                Instr::MbarWait { bar: full_k[i] },
                t_issue.clone(),
                Instr::WgmmaWait { pending: 0 },
                Instr::MbarArrive { bar: empty_k[i] },
                softmax.clone(),
                Instr::MbarWait { bar: full_v[i] },
                u_issue.clone(),
                Instr::WgmmaWait { pending: 0 },
                Instr::MbarArrive { bar: empty_v[i] },
            ];
            cons.push(Instr::Loop {
                count: alloc(tails, &mut params),
                body,
            });
        }
    }
    cons.push(Instr::CudaOp {
        flops: 3 * m_wg as u64 * dh,
        sfu: 0,
        label: "o-rescale",
    });
    cons.push(Instr::GlobalStore {
        bytes: m_wg as u64 * dh * esz,
    });

    k.add_warp_group(Role::Producer, 24, prod);
    for _ in 0..coop {
        k.add_warp_group(Role::Consumer, regs, cons.clone());
    }
    k.classes = trips
        .iter()
        .zip(mults.iter())
        .zip(params.iter())
        .map(|((_, &m), p)| CtaClass {
            params: p.clone(),
            multiplicity: m,
        })
        .collect();
    tawa_wsir::validate(&k).map_err(|e| format!("invalid template: {e:?}"))?;
    Ok(k)
}

/// Unrolls `iters` iterations of a slot-cyclic body (constant trip counts).
fn emit_ring(
    out: &mut Vec<Instr>,
    iters: u64,
    d: usize,
    start: usize,
    mut emit: impl FnMut(usize, &mut Vec<Instr>),
) {
    let steady = iters / d as u64;
    if steady > 0 {
        let mut block = Vec::new();
        for i in 0..d {
            emit((start + i) % d, &mut block);
        }
        out.push(Instr::loop_const(steady, block));
    }
    for i in 0..(iters % d as u64) as usize {
        emit((start + i) % d, out);
    }
}

/// Finalizes grid/classes and attaches warp-group programs, handling the
/// persistent transformation.
#[allow(clippy::too_many_arguments)]
fn finish_grid(
    k: &mut Kernel,
    device: &Device,
    grid: u64,
    persistent: bool,
    prod: Vec<Instr>,
    cons: Vec<Instr>,
    coop: usize,
    consumer_regs: u32,
) {
    if persistent {
        let mut probe = k.clone();
        probe.add_warp_group(Role::Producer, 24, vec![Instr::Syncthreads]);
        for _ in 0..coop {
            probe.add_warp_group(Role::Consumer, consumer_regs, vec![Instr::Syncthreads]);
        }
        let occ = device.occupancy(&probe).max(1);
        let resident = (device.sms as u64 * occ as u64).min(grid).max(1);
        let full = grid / resident;
        let rem = grid % resident;
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::Loop {
                count: Count::Param(0),
                body: prod,
            }],
        );
        for _ in 0..coop {
            k.add_warp_group(
                Role::Consumer,
                consumer_regs,
                vec![Instr::Loop {
                    count: Count::Param(0),
                    body: cons.clone(),
                }],
            );
        }
        k.persistent = true;
        if rem > 0 {
            k.classes.push(CtaClass {
                params: vec![full + 1],
                multiplicity: rem,
            });
        }
        if full > 0 && resident > rem {
            k.classes.push(CtaClass {
                params: vec![full],
                multiplicity: resident - rem,
            });
        }
    } else {
        k.add_warp_group(Role::Producer, 24, prod);
        for _ in 0..coop {
            k.add_warp_group(Role::Consumer, consumer_regs, cons.clone());
        }
        k.uniform_grid(grid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::simulate;
    use tawa_frontend::config::Tile;
    use tawa_ir::types::DType;

    fn dev() -> Device {
        Device::h100_sxm5()
    }

    #[test]
    fn expert_gemm_template_runs() {
        let cfg = GemmConfig::new(4096, 4096, 8192).with_tile(Tile::LARGE);
        let s = GemmStrategy {
            coop: 2,
            d: 3,
            p: 2,
            persistent: true,
            launch_ns: 2200,
            iter_bubble: 0.0,
        };
        let k = ws_gemm(&cfg, &s, &dev()).expect("template");
        let r = simulate(&k, &dev()).expect("sim");
        assert!(r.tflops > 400.0, "expert gemm too slow: {}", r.tflops);
    }

    #[test]
    fn template_matches_compiler_at_equal_params() {
        // The hand template and the Tawa-compiled kernel implement the same
        // schedule: their simulated times must agree within 10%.
        let cfg = GemmConfig::new(4096, 4096, 4096);
        let s = GemmStrategy {
            coop: 1,
            d: 2,
            p: 2,
            persistent: false,
            launch_ns: 5500,
            iter_bubble: 0.0,
        };
        let k = ws_gemm(&cfg, &s, &dev()).unwrap();
        let expert = simulate(&k, &dev()).unwrap();
        let compiled = tawa_core::CompileSession::in_memory(&dev())
            .compile_and_simulate_program(
                &tawa_frontend::kernels::gemm(&cfg),
                &tawa_core::CompileOptions::default(),
            )
            .unwrap();
        let ratio = compiled.tflops / expert.tflops;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "compiler {} vs expert {} (ratio {ratio})",
            compiled.tflops,
            expert.tflops
        );
    }

    #[test]
    fn gemm_template_rejects_infeasible() {
        let cfg = GemmConfig::new(2048, 2048, 2048).with_tile(Tile::LARGE);
        let bad_p = GemmStrategy {
            coop: 2,
            d: 1,
            p: 2,
            persistent: false,
            launch_ns: 0,
            iter_bubble: 0.0,
        };
        assert!(ws_gemm(&cfg, &bad_p, &dev()).is_err());
        let bad_regs = GemmStrategy {
            coop: 1,
            d: 2,
            p: 2,
            persistent: false,
            launch_ns: 0,
            iter_bubble: 0.0,
        };
        assert!(
            ws_gemm(&cfg, &bad_regs, &dev()).is_err(),
            "128x256 single WG"
        );
    }

    #[test]
    fn attention_template_runs_causal_and_fp8() {
        for (causal, dt) in [
            (false, DType::F16),
            (true, DType::F16),
            (true, DType::F8E4M3),
        ] {
            let cfg = AttentionConfig::paper(2048, causal, dt);
            let s = AttentionStrategy {
                coop: 2,
                d: 2,
                overlap: true,
                softmax_exposure: 1.0,
                launch_ns: 3000,
                iter_bubble: 0.0,
            };
            let k = ws_attention(&cfg, &s, &dev()).expect("template");
            let r = simulate(&k, &dev()).expect("sim");
            assert!(r.tflops > 100.0, "causal={causal} {dt}: {}", r.tflops);
        }
    }

    #[test]
    fn overlap_beats_serial_in_template_too() {
        let cfg = AttentionConfig::paper(8192, false, DType::F16);
        let mk = |overlap: bool| {
            let s = AttentionStrategy {
                coop: 2,
                d: 2,
                overlap,
                softmax_exposure: 1.0,
                launch_ns: 3000,
                iter_bubble: 0.0,
            };
            simulate(&ws_attention(&cfg, &s, &dev()).unwrap(), &dev())
                .unwrap()
                .tflops
        };
        assert!(mk(true) > mk(false));
    }

    #[test]
    fn bubble_slows_kernels() {
        let cfg = GemmConfig::new(4096, 4096, 4096)
            .with_dtype(DType::F8E4M3)
            .with_tile(Tile::LARGE);
        let mk = |bubble: f64| {
            let s = GemmStrategy {
                coop: 2,
                d: 3,
                p: 2,
                persistent: true,
                launch_ns: 5500,
                iter_bubble: bubble,
            };
            simulate(&ws_gemm(&cfg, &s, &dev()).unwrap(), &dev())
                .unwrap()
                .tflops
        };
        // The FP8 shape here sits near the bandwidth bound, so only part of
        // the bubble is exposed; it must still measurably slow the kernel.
        assert!(mk(0.0) > mk(0.3) * 1.03, "{} vs {}", mk(0.0), mk(0.3));
    }
}
