//! Triton-style GEMM kernels (plain, batched and grouped), mirroring the
//! paper's Fig. 2b program structure: TMA tile loads inside a K-loop
//! feeding `tl.dot`, with a pointer-arithmetic epilogue store.
//!
//! Written in [`crate::dsl`] — the kernels are precision-generic
//! (`GemmConfig::dtype` selects FP16 or FP8 at build time), so tiles use
//! the dynamic [`crate::dsl::elem::Any`] element marker while the `f32`
//! accumulator is statically typed.

use tawa_ir::spec::SpecClass;

use crate::config::GemmConfig;
use crate::dsl::elem::F32;
use crate::dsl::{KernelBuilder, Program};

/// Builds the GEMM kernel and its launch specialization.
///
/// Parameters (in order): `a_desc: desc<dt>`, `b_desc: desc<dt>`,
/// `c_ptr: ptr<dt>`, `M: i32`, `N: i32`, `K: i32`.
///
/// The kernel computes `C = A · Bᵀ` with `A: M×K`, `B: N×K` (K-major B, as
/// in the paper, so both operands stream K-contiguous tiles through TMA).
pub fn gemm(cfg: &GemmConfig) -> Program {
    assert_eq!(cfg.batch, 1, "use batched_gemm for batch > 1");
    let (mt, nt, kt) = (cfg.tile.m, cfg.tile.n, cfg.tile.k);
    let dt = cfg.dtype;
    let mut k = KernelBuilder::new("matmul");
    let a_desc = k.desc_param(dt, [cfg.m, cfg.k]);
    let b_desc = k.desc_param(dt, [cfg.n, cfg.k]);
    let c_ptr = k.ptr_param(dt, [cfg.m, cfg.n]);
    let m_arg = k.i32_param(cfg.m as i64);
    let n_arg = k.i32_param(cfg.n as i64);
    let k_arg = k.i32_param(cfg.k as i64);

    let pid = k.program_id(0);
    let c_mt = k.i32(mt as i64);
    let c_nt = k.i32(nt as i64);
    let c_kt = k.i32(kt as i64);
    let num_pid_m = k.cdiv(m_arg, c_mt);
    let pid_m = k.rem(pid, num_pid_m);
    let pid_n = k.div(pid, num_pid_m);
    let o_am = k.mul(pid_m, c_mt);
    let o_bn = k.mul(pid_n, c_nt);
    let acc0 = k.zeros::<F32>([mt, nt]);
    k.name(acc0, "acc");
    let o_k0 = k.i32(0);
    let lo = k.i32(0);
    let hi = k.cdiv(k_arg, c_kt);
    let step = k.i32(1);
    let (acc, _) = k.for_range(lo, hi, step, (acc0, o_k0), |k, _kv, (acc, o_k)| {
        let a = k.tma_load(a_desc, &[o_am, o_k], [mt, kt]);
        let bt = k.tma_load(b_desc, &[o_bn, o_k], [nt, kt]);
        let btt = k.transpose(bt);
        let acc2 = k.dot(a, btt, acc);
        let o_k2 = k.add(o_k, c_kt);
        (acc2, o_k2)
    });
    // Epilogue: C[pid_m·Mt + i, pid_n·Nt + j] = acc[i, j].
    let offs_m = k.arange(0, mt as i64);
    let offs_n = k.arange(0, nt as i64);
    let offs_cm = k.add(offs_m, o_am);
    let offs_cn = k.add(offs_n, o_bn);
    let em = k.expand_dims(offs_cm, 1);
    let bm = k.broadcast_to(em, [mt, nt]);
    let en = k.expand_dims(offs_cn, 0);
    let bn = k.broadcast_to(en, [mt, nt]);
    let n_splat = k.splat(n_arg, [mt, nt]);
    let row_scaled = k.mul(bm, n_splat);
    let offs = k.add(row_scaled, bn);
    let addrs = k.addptr(c_ptr, offs);
    let out = k.cast_dt(acc, dt);
    k.store(addrs, out);
    k.launch_uniform(cfg.grid(), cfg.flops());
    k.finish().expect("gemm zoo kernel is well-formed")
}

/// Batched GEMM: identical inner structure with a third descriptor
/// coordinate selecting the batch (`program_id(1)`).
pub fn batched_gemm(cfg: &GemmConfig) -> Program {
    assert!(cfg.batch > 1, "use gemm for batch == 1");
    let (mt, nt, kt) = (cfg.tile.m, cfg.tile.n, cfg.tile.k);
    let dt = cfg.dtype;
    let mut k = KernelBuilder::new("batched_matmul");
    let a_desc = k.desc_param(dt, [cfg.batch, cfg.m, cfg.k]);
    let b_desc = k.desc_param(dt, [cfg.batch, cfg.n, cfg.k]);
    let c_ptr = k.ptr_param(dt, [cfg.batch, cfg.m, cfg.n]);
    let m_arg = k.i32_param(cfg.m as i64);
    let n_arg = k.i32_param(cfg.n as i64);
    let k_arg = k.i32_param(cfg.k as i64);

    let pid = k.program_id(0);
    let pid_b = k.program_id(1);
    let c_mt = k.i32(mt as i64);
    let c_nt = k.i32(nt as i64);
    let c_kt = k.i32(kt as i64);
    let num_pid_m = k.cdiv(m_arg, c_mt);
    let pid_m = k.rem(pid, num_pid_m);
    let pid_n = k.div(pid, num_pid_m);
    let o_am = k.mul(pid_m, c_mt);
    let o_bn = k.mul(pid_n, c_nt);
    let acc0 = k.zeros::<F32>([mt, nt]);
    let o_k0 = k.i32(0);
    let lo = k.i32(0);
    let hi = k.cdiv(k_arg, c_kt);
    let step = k.i32(1);
    let (acc, _) = k.for_range(lo, hi, step, (acc0, o_k0), |k, _kv, (acc, o_k)| {
        let a = k.tma_load(a_desc, &[pid_b, o_am, o_k], [mt, kt]);
        let bt = k.tma_load(b_desc, &[pid_b, o_bn, o_k], [nt, kt]);
        let btt = k.transpose(bt);
        let acc2 = k.dot(a, btt, acc);
        let o_k2 = k.add(o_k, c_kt);
        (acc2, o_k2)
    });
    let offs_m = k.arange(0, mt as i64);
    let offs_n = k.arange(0, nt as i64);
    let offs_cm = k.add(offs_m, o_am);
    let offs_cn = k.add(offs_n, o_bn);
    let em = k.expand_dims(offs_cm, 1);
    let bm = k.broadcast_to(em, [mt, nt]);
    let en = k.expand_dims(offs_cn, 0);
    let bn = k.broadcast_to(en, [mt, nt]);
    let n_splat = k.splat(n_arg, [mt, nt]);
    let row_scaled = k.mul(bm, n_splat);
    let within = k.add(row_scaled, bn);
    // Batch offset: pid_b · M · N.
    let mn = k.mul(m_arg, n_arg);
    let batch_off = k.mul(pid_b, mn);
    let batch_splat = k.splat(batch_off, [mt, nt]);
    let offs = k.add(within, batch_splat);
    let addrs = k.addptr(c_ptr, offs);
    let out = k.cast_dt(acc, dt);
    k.store(addrs, out);
    k.launch(
        vec![SpecClass {
            pid: [0, 0, 0],
            multiplicity: cfg.grid(),
        }],
        [cfg.grid() / cfg.batch as u64, cfg.batch as u64, 1],
        cfg.flops(),
    );
    k.finish().expect("batched gemm zoo kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_ir::op::OpKind;
    use tawa_ir::print::print_module;
    use tawa_ir::types::DType;
    use tawa_ir::verify::verify_module;

    #[test]
    fn gemm_module_verifies() {
        let p = gemm(&GemmConfig::new(512, 512, 256));
        verify_module(p.module()).expect("gemm IR must verify");
        assert_eq!(p.spec().grid_size(), 4 * 4);
        assert_eq!(p.spec().int(5), Some(256));
    }

    #[test]
    fn gemm_has_expected_ops() {
        let p = gemm(&GemmConfig::new(512, 512, 256));
        let f = &p.module().funcs[0];
        let kinds: Vec<OpKind> = f.walk().iter().map(|&o| f.op(o).kind).collect();
        assert_eq!(
            kinds.iter().filter(|&&k| k == OpKind::TmaLoad).count(),
            2,
            "A and B loads"
        );
        assert_eq!(kinds.iter().filter(|&&k| k == OpKind::Dot).count(), 1);
        assert_eq!(kinds.iter().filter(|&&k| k == OpKind::Store).count(), 1);
        assert_eq!(kinds.iter().filter(|&&k| k == OpKind::For).count(), 1);
    }

    #[test]
    fn gemm_ops_carry_source_locations() {
        let p = gemm(&GemmConfig::new(512, 512, 256));
        let f = &p.module().funcs[0];
        let located = f.walk().iter().filter(|&&o| f.loc(o).is_some()).count();
        assert_eq!(located, f.walk().len(), "every op has a DSL call site");
        let loc = f.loc(f.walk()[0]).unwrap();
        assert!(loc.file.ends_with("gemm.rs"), "{loc}");
    }

    #[test]
    fn gemm_prints_and_reparses() {
        let p = gemm(&GemmConfig::new(256, 256, 128));
        let s = print_module(p.module());
        let m2 = tawa_ir::parse::parse_module(&s).expect("reparse");
        assert_eq!(print_module(&m2), s);
    }

    #[test]
    fn batched_gemm_verifies() {
        let p = batched_gemm(&GemmConfig::new(1024, 1024, 1024).with_batch(8));
        verify_module(p.module()).expect("batched gemm IR must verify");
        assert_eq!(p.spec().grid_size(), 8 * 8 * 8);
        let f = &p.module().funcs[0];
        // Loads carry the batch coordinate: 3 coords + desc = 4 operands.
        let loads: Vec<_> = f
            .walk()
            .into_iter()
            .filter(|&o| f.op(o).kind == OpKind::TmaLoad)
            .collect();
        assert!(loads.iter().all(|&o| f.op(o).operands.len() == 4));
    }

    #[test]
    fn fp8_gemm_types() {
        let p = gemm(&GemmConfig::new(256, 256, 128).with_dtype(DType::F8E4M3));
        let f = &p.module().funcs[0];
        let load = f
            .walk()
            .into_iter()
            .find(|&o| f.op(o).kind == OpKind::TmaLoad)
            .unwrap();
        let result_ty = f.ty(f.results(load)[0]);
        assert_eq!(result_ty.elem(), Some(DType::F8E4M3));
    }
}
