//! Performance tier: warning lints that explain *throughput*, not
//! correctness.
//!
//! The protocol tier ([`super::analyze`]) proves a kernel safe; this tier
//! explains why a safe kernel is slow before the simulator says *that* it
//! is. It draws on two fact sources:
//!
//! * **Tile IR** ([`analyze_ir`]) — `tawa_ir::analysis`'s def-use mark
//!   from the sinks and its put-before-get rule, run over the *raw* input
//!   module (the cleanup pipeline's DCE would strip the very dead compute
//!   we want to report). Produces `dead-compute` and
//!   `uninitialized-tile-read`.
//! * **Lowered WSIR + analytic bounds** ([`analyze_kernel`]) — the barrier
//!   ownership map the protocol interpreter derives (paper Fig. 4) joined
//!   with resource and pipeline bounds from `gpu_sim::analytic`, packaged
//!   as a [`PerfModel`] so this crate stays independent of the simulator.
//!   Produces `single-buffered-pipeline`, `over-synchronized`,
//!   `unbalanced-stages` and `occupancy-capped`.
//!
//! Every lint here is [`super::Severity::Warning`]: perf lints **never
//! gate compilation**. `tawa-core`'s `CompileSession` collects them into a
//! `PerfSummary` alongside compile results, `tawa-lint --perf` prints
//! them, and the serving replay counts them per winning configuration in
//! its fleet report.

use std::collections::{BTreeMap, BTreeSet};

use tawa_ir::analysis::{dead_result_ops, uninitialized_gets};
use tawa_ir::op::OpKind;
use tawa_ir::{Loc, Module};

use super::{barrier_use, interp, BarrierUse, Lint, LintKind};
use crate::instr::{BarId, Instr};
use crate::kernel::{Kernel, SrcLoc};

/// Analytic facts the performance lints need from the device model,
/// normally filled by `gpu_sim::perf_model(kernel, device)`. Carrying the
/// facts instead of the device keeps `tawa_wsir` free of a simulator
/// dependency (the simulator depends on *this* crate).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// Producer (load) cycles per steady-loop iteration, transfer time
    /// included — what one ring slot costs to fill.
    pub producer_cycles_per_iter: f64,
    /// Consumer (compute) cycles per steady-loop iteration — what one ring
    /// slot costs to drain.
    pub consumer_cycles_per_iter: f64,
    /// Admissible producer/consumer cost ratio for full overlap; above it
    /// no ring depth hides the loads.
    pub overlap_window: f64,
    /// Achieved resident CTAs per SM (0 = unplaceable).
    pub ctas_per_sm: u32,
    /// CTAs per SM at which the device's tensor cores saturate.
    pub saturation_ctas_per_sm: u32,
    /// Resource capping occupancy (`smem`, `regs`, `threads`, `slots`).
    pub occupancy_limiter: String,
    /// Usable shared memory per SM in bytes, for admissible ring depth.
    pub smem_per_sm: u64,
    /// True when the analytic bottleneck is the aref-ring recurrence — the
    /// precondition for `single-buffered-pipeline` (a depth-1 ring that is
    /// not the bottleneck, e.g. decode attention, is a legitimate choice).
    pub ring_is_bottleneck: bool,
    /// True when the bottleneck is per-CTA serialization (actor or ring
    /// bound) rather than raw tensor-core or memory throughput — the
    /// precondition for the overlap-shaped lints (`unbalanced-stages`,
    /// `occupancy-capped`): more overlap only helps when serialization,
    /// not a hard resource, is binding.
    pub overlap_is_bottleneck: bool,
}

fn srcloc(loc: Loc) -> SrcLoc {
    SrcLoc {
        file: loc.file,
        line: loc.line,
        col: loc.col,
    }
}

/// IR-level performance lints over the **raw** (pre-cleanup) tile-IR
/// module: `dead-compute` for each dot no sink needs, and
/// `uninitialized-tile-read` for each aref read no write reaches.
/// Loc-preserving: each lint carries the DSL span of the offending op when
/// the frontend recorded one.
pub fn analyze_ir(module: &Module) -> Vec<Lint> {
    let mut lints = Vec::new();
    for f in &module.funcs {
        let mut push = |op, kind| {
            let mut lint = Lint::new(kind);
            lint.loc = f.loc(op).map(srcloc);
            lints.push(lint);
        };
        for op in dead_result_ops(f) {
            if f.op(op).kind == OpKind::Dot {
                let name = OpKind::Dot.name().to_string();
                push(op, LintKind::DeadCompute { op: name });
            }
        }
        for op in uninitialized_gets(f) {
            let slot = f.op(op).operands.first().map(ToString::to_string);
            let slot = slot.unwrap_or_default();
            push(op, LintKind::UninitializedTileRead { slot });
        }
    }
    lints
}

/// Collects every loop body in an instruction tree (outermost first).
fn loop_bodies<'k>(body: &'k [Instr], out: &mut Vec<&'k [Instr]>) {
    for instr in body {
        if let Instr::Loop { body, .. } = instr {
            out.push(body);
            loop_bodies(body, out);
        }
    }
}

/// WSIR-level performance lints over the lowered kernel and the analytic
/// facts in `model`. All findings are warnings; an unplaceable kernel
/// (`model.ctas_per_sm == 0`) yields none — infeasibility is the
/// autotuner's province, not a perf hint.
pub fn analyze_kernel(k: &Kernel, model: &PerfModel) -> Vec<Lint> {
    let mut lints = Vec::new();
    if model.ctas_per_sm == 0 {
        return lints;
    }
    let pairs = interp::derive_pairs(k);

    single_buffered(k, model, &pairs, &mut lints);
    over_synchronized(k, &barrier_use(k), &pairs, &mut lints);

    let has_split_roles = k
        .warp_groups
        .iter()
        .any(|wg| matches!(wg.role, crate::instr::Role::Producer))
        && k.warp_groups
            .iter()
            .any(|wg| matches!(wg.role, crate::instr::Role::Consumer));
    if has_split_roles
        && model.overlap_is_bottleneck
        && model.consumer_cycles_per_iter > 0.0
        && model.producer_cycles_per_iter > model.overlap_window * model.consumer_cycles_per_iter
    {
        lints.push(Lint::new(LintKind::UnbalancedStages {
            producer_cycles: model.producer_cycles_per_iter.round() as u64,
            consumer_cycles: model.consumer_cycles_per_iter.round() as u64,
            window: model.overlap_window,
        }));
    }

    if model.overlap_is_bottleneck && model.ctas_per_sm < model.saturation_ctas_per_sm {
        lints.push(Lint::new(LintKind::OccupancyCapped {
            occupancy: model.ctas_per_sm,
            saturation: model.saturation_ctas_per_sm,
            limiter: model.occupancy_limiter.clone(),
        }));
    }

    lints
}

/// Largest ring depth worth suggesting; beyond this the recurrence is
/// fully amortized and deeper rings only cost occupancy.
const MAX_SUGGESTED_DEPTH: u64 = 8;

/// `single-buffered-pipeline`: a steady loop feeding exactly one paired
/// tile slot (ring depth 1) while the per-CTA shared-memory budget admits
/// two or more — and the ring recurrence is the analytic bottleneck, so
/// deepening the ring is the fix, not a trade.
fn single_buffered(k: &Kernel, model: &PerfModel, pairs: &interp::Pairs, lints: &mut Vec<Lint>) {
    if !model.ring_is_bottleneck {
        return;
    }
    let mut flagged: BTreeSet<u32> = BTreeSet::new();
    for wg in &k.warp_groups {
        let mut bodies = Vec::new();
        loop_bodies(&wg.body, &mut bodies);
        for body in bodies {
            // Paired slots filled directly by this body (nested loops are
            // visited as their own bodies).
            let mut slots: BTreeMap<u32, u64> = BTreeMap::new();
            for instr in body {
                if let Instr::TmaLoad { bytes, bar } = instr {
                    if matches!(pairs.guard_of.get(bar.0 as usize), Some(Some(_))) {
                        *slots.entry(bar.0).or_insert(0) += bytes;
                    }
                }
            }
            if slots.len() != 1 {
                continue;
            }
            let Some((&full, &slot_bytes)) = slots.iter().next() else {
                continue;
            };
            if slot_bytes == 0 || !flagged.insert(full) {
                continue;
            }
            // Budget: what this CTA can stage at its current residency,
            // minus everything that is not the ring slot.
            let budget = model.smem_per_sm / u64::from(model.ctas_per_sm.max(1));
            let non_ring = k.smem_bytes.saturating_sub(slot_bytes);
            let admissible = budget.saturating_sub(non_ring) / slot_bytes;
            if admissible >= 2 {
                let mut lint = Lint::new(LintKind::SingleBufferedPipeline {
                    slot_bytes,
                    admissible: admissible.min(MAX_SUGGESTED_DEPTH),
                });
                lint.loc = k.bar_loc(BarId(full));
                lints.push(lint);
            }
        }
    }
}

/// `over-synchronized`: a live barrier handshake (waited *and* signalled)
/// that guards no tile slot in the derived ownership map and is never
/// posted to by a TMA transfer — the edge orders no tile access, it only
/// serializes warp groups.
fn over_synchronized(
    k: &Kernel,
    uses: &[BarrierUse],
    pairs: &interp::Pairs,
    lints: &mut Vec<Lint>,
) {
    for (b, u) in uses.iter().enumerate() {
        let guards_slot = pairs.guard_of[b].is_some() || pairs.data_of[b].is_some();
        if u.waited && u.arrived && !u.tma_fed && !guards_slot {
            let mut lint = Lint::new(LintKind::OverSynchronized {
                bar: BarId(b as u32),
                name: k.barriers[b].name.clone(),
            });
            lint.loc = k.bar_loc(BarId(b as u32));
            lints.push(lint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Role;
    use tawa_ir::parse::parse_module;

    fn model() -> PerfModel {
        PerfModel {
            producer_cycles_per_iter: 100.0,
            consumer_cycles_per_iter: 1000.0,
            overlap_window: 1.5,
            ctas_per_sm: 1,
            saturation_ctas_per_sm: 1,
            occupancy_limiter: "smem".into(),
            smem_per_sm: 228 * 1024,
            ring_is_bottleneck: true,
            overlap_is_bottleneck: true,
        }
    }

    /// Depth-`d` producer/consumer handshake over 32 KiB slots.
    fn ring_kernel(d: usize) -> Kernel {
        let mut k = Kernel::new("ring");
        k.uniform_grid(4);
        k.smem_bytes = d as u64 * 32 * 1024 + 33 * 1024;
        let mut pbody = Vec::new();
        let mut cbody = Vec::new();
        let mut bars = Vec::new();
        for s in 0..d {
            let full = k.add_barrier(&format!("full{s}"), 1);
            let empty = k.add_barrier_init(&format!("empty{s}"), 1, 1);
            bars.push((full, empty));
        }
        for &(full, empty) in &bars {
            pbody.push(Instr::MbarWait { bar: empty });
            pbody.push(Instr::TmaLoad {
                bytes: 32 * 1024,
                bar: full,
            });
            cbody.push(Instr::MbarWait { bar: full });
            cbody.push(Instr::WgmmaIssue {
                m: 128,
                n: 128,
                k: 64,
                dtype: crate::instr::MmaDtype::F16,
            });
            cbody.push(Instr::WgmmaWait { pending: 0 });
            cbody.push(Instr::MbarArrive { bar: empty });
        }
        k.add_warp_group(Role::Producer, 24, vec![Instr::loop_const(16, pbody)]);
        k.add_warp_group(Role::Consumer, 240, vec![Instr::loop_const(16, cbody)]);
        k
    }

    #[test]
    fn depth_one_ring_with_headroom_is_flagged() {
        let lints = analyze_kernel(&ring_kernel(1), &model());
        let lint = lints
            .iter()
            .find(|l| l.id() == "single-buffered-pipeline")
            .unwrap_or_else(|| panic!("{lints:?}"));
        match lint.kind {
            LintKind::SingleBufferedPipeline {
                slot_bytes,
                admissible,
            } => {
                assert_eq!(slot_bytes, 32 * 1024);
                assert!(admissible >= 2, "admissible {admissible}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn deeper_rings_and_non_ring_bottlenecks_stay_clean() {
        assert!(analyze_kernel(&ring_kernel(2), &model())
            .iter()
            .all(|l| l.id() != "single-buffered-pipeline"));
        let mut m = model();
        m.ring_is_bottleneck = false;
        assert!(analyze_kernel(&ring_kernel(1), &m)
            .iter()
            .all(|l| l.id() != "single-buffered-pipeline"));
    }

    #[test]
    fn pure_sync_barrier_is_over_synchronized() {
        let mut k = ring_kernel(2);
        let stray = k.add_barrier("stray", 1);
        k.warp_groups[0].body.push(Instr::MbarArrive { bar: stray });
        k.warp_groups[1].body.push(Instr::MbarWait { bar: stray });
        let lints = analyze_kernel(&k, &model());
        assert!(
            lints.iter().any(|l| matches!(
                &l.kind,
                LintKind::OverSynchronized { name, .. } if name == "stray"
            )),
            "{lints:?}"
        );
        // The ring's own full/empty barriers guard slots: never flagged.
        assert_eq!(
            lints
                .iter()
                .filter(|l| l.id() == "over-synchronized")
                .count(),
            1
        );
    }

    #[test]
    fn unbalanced_and_capped_require_overlap_bottleneck() {
        let k = ring_kernel(2);
        let mut m = model();
        m.producer_cycles_per_iter = 4000.0;
        m.saturation_ctas_per_sm = 2;
        let lints = analyze_kernel(&k, &m);
        assert!(lints.iter().any(|l| l.id() == "unbalanced-stages"));
        assert!(lints.iter().any(|l| l.id() == "occupancy-capped"));
        m.overlap_is_bottleneck = false;
        let lints = analyze_kernel(&k, &m);
        assert!(lints.iter().all(|l| l.id() != "unbalanced-stages"));
        assert!(lints.iter().all(|l| l.id() != "occupancy-capped"));
    }

    #[test]
    fn unplaceable_kernel_yields_no_perf_lints() {
        let mut m = model();
        m.ctas_per_sm = 0;
        assert!(analyze_kernel(&ring_kernel(1), &m).is_empty());
    }

    #[test]
    fn dead_dot_and_uninitialized_get_are_reported_with_locs() {
        let module = parse_module(
            "module { func @k(%arg0: ptr<f16>) {
               %0 = tile.const_tensor() {value = 0.0} : tensor<128x64xf16>
               %1 = tile.const_tensor() {value = 0.0} : tensor<64x128xf16>
               %2 = tile.const_tensor() {value = 0.0} : tensor<128x128xf32>
               %kept = tile.dot(%0, %1, %2) : tensor<128x128xf32>
               %dead = tile.dot(%0, %1, %2) : tensor<128x128xf32>
               %3 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<128x64xf16>>>
               %4 = arith.const_int() {value = 0} : i32
               %early = tawa.get(%3, %4) : tensor<128x64xf16>
               %5 = tile.arange() {start = 0, end = 128} : tensor<128xi32>
               %6 = tile.addptr(%arg0, %5) : tensor<128xi64>
               tile.store(%6, %kept)
             } }",
        )
        .unwrap();
        let lints = analyze_ir(&module);
        let dead = lints
            .iter()
            .find(|l| l.id() == "dead-compute")
            .unwrap_or_else(|| panic!("{lints:?}"));
        assert!(dead.to_string().contains("tile.dot"), "{dead}");
        assert!(
            lints.iter().any(|l| l.id() == "uninitialized-tile-read"),
            "{lints:?}"
        );
        // Exactly one dot is dead: the stored one must not be flagged.
        assert_eq!(lints.iter().filter(|l| l.id() == "dead-compute").count(), 1);
    }

    /// A dot that reaches the store only after `hops` trips around a
    /// rotating iter-arg chain: the dot feeds yield 0, iter-arg `i` feeds
    /// yield `i + 1`, and the loop's last result is stored.
    fn rotating_chain(hops: usize) -> Module {
        let ty = "tensor<16x16xf32>";
        let args: Vec<String> = (0..hops).map(|i| format!("%a{i}")).collect();
        let params: Vec<String> = args.iter().map(|a| format!("{a}: {ty}")).collect();
        let results: Vec<String> = (0..hops).map(|i| format!("%r{i}")).collect();
        let yields = ["%d"]
            .into_iter()
            .chain(args[..hops - 1].iter().map(String::as_str));
        let src = format!(
            "module {{ func @k(%arg0: ptr<f32>) {{
               %lo = arith.const_int() {{value = 0}} : i32
               %hi = arith.const_int() {{value = 128}} : i32
               %one = arith.const_int() {{value = 1}} : i32
               %x = tile.const_tensor() {{value = 0.0}} : tensor<16x16xf16>
               %z = tile.const_tensor() {{value = 0.0}} : {ty}
               {} = scf.for(%lo, %hi, %one, {}) : ({}) {{
                 ^bb(%iv: i32, {}):
                   %d = tile.dot(%x, %x, %z) : {ty}
                   scf.yield({})
               }}
               %p = tile.arange() {{start = 0, end = 16}} : tensor<16xi32>
               %q = tile.addptr(%arg0, %p) : tensor<16xi64>
               tile.store(%q, {})
             }} }}",
            results.join(", "),
            vec!["%z"; hops].join(", "),
            vec![ty; hops].join(", "),
            params.join(", "),
            yields.collect::<Vec<_>>().join(", "),
            results[hops - 1],
        );
        parse_module(&src).unwrap()
    }

    #[test]
    fn dot_reaching_a_store_through_66_carried_hops_is_live() {
        // A fixpoint capped at 64 rounds stopped short of this chain and
        // called the dot dead.
        for hops in [1, 2, 66, 80] {
            let module = rotating_chain(hops);
            let f = &module.funcs[0];
            assert_eq!(dead_result_ops(f), vec![], "{hops} hops");
            assert_eq!(analyze_ir(&module), vec![], "{hops} hops");
        }
    }

    #[test]
    fn written_slot_is_not_uninitialized() {
        let module = parse_module(
            "module { func @k() {
               %0 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<16x16xf16>>>
               %1 = arith.const_int() {value = 0} : i32
               %2 = tile.const_tensor() {value = 0.0} : tensor<16x16xf16>
               tawa.put(%0, %1, %2)
               %3 = tawa.get(%0, %1) : tensor<16x16xf16>
             } }",
        )
        .unwrap();
        let lints = analyze_ir(&module);
        assert!(
            lints.iter().all(|l| l.id() != "uninitialized-tile-read"),
            "{lints:?}"
        );
    }
}
