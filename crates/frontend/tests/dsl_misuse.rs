//! DSL misuse must surface as source-located [`Diagnostic`]s from
//! `KernelBuilder::finish`, never as panics: shape mismatches, element
//! mismatches, values escaping their region, kernels that never store.
//! Each test checks the diagnostic's `loc` points into *this file* at the
//! offending line.

use tawa_frontend::dsl::elem::{F16, F32, I32};
use tawa_frontend::dsl::{KernelBuilder, Program, Scalar, TileExpr};
use tawa_ir::diag::Diagnostic;
use tawa_ir::parse::{parse_module, MAX_REGION_DEPTH};
use tawa_ir::print::print_module;
use tawa_ir::types::DType;

fn here_file() -> &'static str {
    file!()
}

fn assert_located(diags: &[Diagnostic], line: u32, needle: &str) {
    let hit = diags.iter().find(|d| d.message.contains(needle));
    let d = hit.unwrap_or_else(|| panic!("no diagnostic containing {needle:?} in {diags:?}"));
    let loc = d
        .loc
        .unwrap_or_else(|| panic!("diagnostic has no source location: {d}"));
    assert!(
        loc.file.ends_with(here_file()),
        "loc {loc} should point into the author's kernel source"
    );
    assert_eq!(loc.line, line, "diagnostic {d} line");
}

#[test]
fn dot_shape_mismatch_is_a_located_diagnostic_not_a_panic() {
    let mut k = KernelBuilder::new("bad_dot");
    let a = k.zeros::<F16>([128, 32]);
    let b = k.zeros::<F16>([64, 128]);
    let acc = k.zeros::<F32>([128, 128]);
    let bad_line = line!() + 1;
    let _ = k.dot(a, b, acc);
    let err = k.finish().expect_err("contraction mismatch must fail");
    assert_located(&err, bad_line, "contraction mismatch");
}

#[test]
fn element_mismatch_on_dynamic_tiles_is_diagnosed() {
    let mut k = KernelBuilder::new("bad_add");
    let half = k.zeros_dt([64, 64], DType::F16);
    let single = k.zeros_dt([64, 64], DType::F32);
    let bad_line = line!() + 1;
    let _ = k.add(half, single);
    let err = k.finish().expect_err("element mismatch must fail");
    assert_located(&err, bad_line, "incompatible operand types");
}

#[test]
fn shape_mismatch_in_add_is_diagnosed() {
    let mut k = KernelBuilder::new("bad_shapes");
    let a = k.zeros::<F32>([64, 64]);
    let b = k.zeros::<F32>([32, 64]);
    let bad_line = line!() + 1;
    let _ = k.add(a, b);
    let err = k.finish().expect_err("shape mismatch must fail");
    assert_located(&err, bad_line, "incompatible operand types");
}

#[test]
fn value_escaping_its_loop_region_is_diagnosed_at_the_use() {
    let mut k = KernelBuilder::new("escapee");
    let acc0 = k.zeros::<F32>([64, 64]);
    let lo = k.i32(0);
    let hi = k.i32(4);
    let step = k.i32(1);
    let mut leaked: Option<TileExpr<F32>> = None;
    let acc = k.for_range(lo, hi, step, acc0, |k, _iv, acc| {
        let one = k.f32(1.0);
        let ones = k.splat(one, [64, 64]);
        let next = k.add(acc, ones);
        leaked = Some(next);
        next
    });
    // Using the loop-body value after the loop closed must be flagged —
    // only the region's results may flow out.
    let bad_line = line!() + 1;
    let _ = k.add(leaked.unwrap(), acc);
    let err = k.finish().expect_err("escaping value must fail");
    assert_located(&err, bad_line, "outside the region");
}

#[test]
fn kernel_without_a_store_is_diagnosed_at_its_definition() {
    let def_line = line!() + 1;
    let mut k = KernelBuilder::new("never_stores");
    let a = k.zeros::<F32>([16, 16]);
    let _ = k.add(a, a);
    k.launch_uniform(1, 0.0);
    let err = k.finish().expect_err("store-less kernel must fail");
    assert_located(&err, def_line, "never stores a result");
}

#[test]
fn kernel_without_launch_geometry_is_diagnosed() {
    let def_line = line!() + 1;
    let mut k = KernelBuilder::new("no_launch");
    let dst = k.typed_ptr_param::<F32>([16]);
    let t = k.zeros::<F32>([16]);
    let offs = k.arange(0, 16);
    let addrs = k.addptr(dst, offs);
    k.store(addrs, t);
    let err = k.finish().expect_err("launch-less kernel must fail");
    assert_located(&err, def_line, "launch geometry");
}

#[test]
fn several_independent_errors_are_all_collected() {
    let mut k = KernelBuilder::new("multi");
    let a = k.zeros::<F32>([8, 8]);
    let b = k.zeros::<F32>([4, 4]);
    let _ = k.add(a, b); // shape mismatch
    let _ = k.arange(5, 5); // empty range
    let err = k.finish().expect_err("must fail");
    assert!(
        err.iter().any(|d| d.message.contains("incompatible")),
        "{err:?}"
    );
    assert!(
        err.iter().any(|d| d.message.contains("empty range")),
        "{err:?}"
    );
}

#[test]
fn transpose_and_reduce_validate_rank_and_axis() {
    let mut k = KernelBuilder::new("rank_axis");
    let t = k.zeros::<F32>([8]);
    let _ = k.transpose(t); // rank-2 only
    let t2 = k.zeros::<F32>([8, 8]);
    let _ = k.reduce_sum(t2, 2); // axis out of range
    let err = k.finish().expect_err("must fail");
    assert!(err.iter().any(|d| d.message.contains("rank-2")), "{err:?}");
    assert!(
        err.iter().any(|d| d.message.contains("out of range")),
        "{err:?}"
    );
}

#[test]
fn broadcast_incompatibility_is_diagnosed() {
    let mut k = KernelBuilder::new("bad_broadcast");
    let t = k.zeros::<F32>([8, 2]);
    let bad_line = line!() + 1;
    let _ = k.broadcast_to(t, [8, 64]);
    let err = k.finish().expect_err("must fail");
    assert_located(&err, bad_line, "cannot broadcast");
}

#[test]
fn if_joins_tile_branches_with_predicated_selects() {
    use tawa_ir::op::{CmpPred, OpKind};
    let mut k = KernelBuilder::new("predicated");
    let dst = k.typed_ptr_param::<F32>([64]);
    let xs = k.arange(0, 64);
    let c32 = k.i32(32);
    let mask = k.cmp(CmpPred::Lt, xs, c32);
    let joined = k.if_(
        mask,
        |k| {
            let one = k.f32(1.0);
            k.splat(one, [64])
        },
        |k| {
            let two = k.f32(2.0);
            k.splat(two, [64])
        },
    );
    let addrs = k.addptr(dst, xs);
    k.store(addrs, joined);
    k.launch_uniform(1, 0.0);
    let p = k.finish().expect("predicated kernel is well-formed");
    let f = &p.module().funcs[0];
    let kinds: Vec<OpKind> = f.walk().iter().map(|&o| f.op(o).kind).collect();
    assert!(kinds.contains(&OpKind::Select), "{kinds:?}");
}

#[test]
fn handle_from_another_builder_is_diagnosed_even_when_in_range() {
    let mut a = KernelBuilder::new("kernel_a");
    let _pad = a.i32(0); // ensure a's value ids overlap b's range
    let foreign = a.zeros::<F32>([8, 8]);
    let mut b = KernelBuilder::new("kernel_b");
    // b has plenty of values, so the foreign id is in range here.
    let own = b.zeros::<F32>([8, 8]);
    let _more = b.zeros::<F32>([8, 8]);
    let bad_line = line!() + 1;
    let _ = b.add(own, foreign);
    let err = b.finish().expect_err("cross-builder handle must fail");
    assert_located(&err, bad_line, "does not belong to this kernel builder");
}

#[test]
fn if_branch_returning_foreign_handle_is_diagnosed() {
    use tawa_ir::op::CmpPred;
    let mut a = KernelBuilder::new("kernel_a");
    let _pad = a.i32(0);
    let foreign = a.zeros::<F32>([64]);
    let mut b = KernelBuilder::new("kernel_b");
    let xs = b.arange(0, 64);
    let c32 = b.i32(32);
    let mask = b.cmp(CmpPred::Lt, xs, c32);
    let bad_line = line!() + 1;
    let _ = b.if_(
        mask,
        |_| foreign, // a tile from another builder leaks through the join
        |k| {
            let one = k.f32(1.0);
            k.splat(one, [64])
        },
    );
    let err = b.finish().expect_err("foreign branch result must fail");
    assert_located(&err, bad_line, "does not belong to this kernel builder");
}

#[test]
fn tma_coordinate_count_must_match_descriptor_rank() {
    let mut k = KernelBuilder::new("bad_coords");
    // A 3-D global tensor (batch, rows, cols)…
    let desc = k.typed_desc_param::<F16>([4, 1024, 64]);
    let row = k.i32(0);
    let bad_line = line!() + 1;
    let _ = k.tma_load(desc, &[row], [128, 64]); // …but only 1 coordinate.
    let err = k.finish().expect_err("rank mismatch must fail");
    assert_located(&err, bad_line, "rank-3 global tensor but 1 coordinates");
}

#[test]
fn arange_overflow_is_a_diagnostic_not_a_panic() {
    let mut k = KernelBuilder::new("overflow");
    let _ = k.arange(i64::MIN, 0); // end - start overflows i64
    let err = k.finish().expect_err("must fail");
    assert!(
        err.iter().any(|d| d.message.contains("empty range")),
        "{err:?}"
    );
}

#[test]
fn if_rejects_scalar_carried_values() {
    use tawa_ir::op::CmpPred;
    let mut k = KernelBuilder::new("scalar_if");
    let xs = k.arange(0, 8);
    let c4 = k.i32(4);
    let mask = k.cmp(CmpPred::Lt, xs, c4);
    let bad_line = line!() + 1;
    let _ = k.if_(mask, |k| k.i32(1), |k| k.i32(2));
    let err = k.finish().expect_err("scalar if_ must fail");
    assert_located(&err, bad_line, "tile values only");
}

/// Nests `levels` loops, each carrying `x`; every one is the `for_range`
/// call on the line this returns.
fn nest(k: &mut KernelBuilder, levels: usize, x: Scalar<I32>) -> (Scalar<I32>, u32) {
    let (lo, hi, step) = (k.i32(0), k.i32(1), k.i32(1));
    let line = line!() + 1;
    let x = k.for_range(lo, hi, step, x, |k, _iv, x| match levels {
        0 | 1 => x,
        _ => nest(k, levels - 1, x).0,
    });
    (x, line)
}

/// A storing, launched kernel around `levels` nested loops, and the line
/// of their `for_range` call.
fn nested_kernel(levels: usize) -> (Result<Program, Vec<Diagnostic>>, u32) {
    let mut k = KernelBuilder::new("deep");
    let dst = k.typed_ptr_param::<F32>([16]);
    let zero = k.i32(0);
    let (_, line) = nest(&mut k, levels, zero);
    let t = k.zeros::<F32>([16]);
    let offs = k.arange(0, 16);
    let addrs = k.addptr(dst, offs);
    k.store(addrs, t);
    k.launch_uniform(1, 0.0);
    (k.finish(), line)
}

#[test]
fn loops_nest_only_as_deep_as_the_parser_reads_back() {
    // Building, printing and parsing recurse once per level.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let (program, _) = nested_kernel(MAX_REGION_DEPTH);
            let printed = print_module(program.unwrap().module());
            let reparsed = parse_module(&printed).unwrap();
            assert_eq!(print_module(&reparsed), printed);
            for levels in [MAX_REGION_DEPTH + 1, 2_000] {
                let (program, line) = nested_kernel(levels);
                let err = program.expect_err("too deep a nest must fail");
                assert_located(&err, line, "nest deeper than 64 levels");
                assert_eq!(err.len(), 1, "{levels}: one diagnostic per nest: {err:?}");
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
