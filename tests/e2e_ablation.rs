//! Ablation integration tests: the Fig. 12 stacking must hold end-to-end,
//! and the Fig. 11 feasibility frontier must match the paper's.

use gpu_sim::Device;
use tawa::CompileSession;
use tawa_bench::{fig11, fig12, Scale};

#[test]
fn gemm_ablation_reproduces_paper_ordering() {
    let dev = Device::h100_sxm5();
    let abl = fig12::run_gemm_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
    let labels: Vec<&str> = abl.steps.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "Triton w/o WS",
            "+Auto WS",
            "+Cooperative WGs",
            "+Large Tile Size",
            "+Persistent Kernel",
            "+Better Aref Size"
        ]
    );
    let t: Vec<f64> = abl.steps.iter().map(|s| s.tflops).collect();
    // Paper's end-to-end stack: ~6.9× from baseline to fully optimized.
    let total = t[5] / t[0];
    assert!(total > 2.5, "total ablation gain {total}: {t:?}");
    // The final configuration must be the best.
    assert!(
        t[5] >= *t
            .iter()
            .take(5)
            .fold(&0.0, |a, b| if b > a { b } else { a })
    );
}

#[test]
fn mha_ablation_reproduces_paper_ordering() {
    let dev = Device::h100_sxm5();
    let abl = fig12::run_mha_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
    let t: Vec<f64> = abl.steps.iter().map(|s| s.tflops).collect();
    let total = t[4] / t[0];
    assert!(total > 1.5, "total MHA ablation gain {total}: {t:?}");
    // Cooperative warp groups are the dominant jump (paper: 232 → 593).
    let coop_gain = t[2] / t[1];
    let other_gains = [t[1] / t[0], t[3] / t[2], t[4] / t[3]];
    assert!(
        other_gains.iter().all(|&g| coop_gain > g),
        "coop {coop_gain} vs {other_gains:?}"
    );
}

#[test]
fn fig11_feasibility_frontier() {
    let dev = Device::h100_sxm5();
    let map = fig11::run_panel_with_session(&CompileSession::in_memory(&dev), false, Scale::Quick);
    for d in 1..=3usize {
        for p in 1..=3usize {
            let v = map.values[d - 1][p - 1];
            if p > d {
                assert_eq!(v, 0.0, "D={d} P={p} must be infeasible");
            } else {
                assert!(v > 0.0, "D={d} P={p} must run");
            }
        }
    }
    // The paper's corner case: over-pipelining (D=2, P=2) is WORSE than
    // (D=2, P=1) because the delayed release shrinks the effective ring.
    assert!(
        map.values[1][0] > map.values[1][1],
        "D=2: P=1 ({}) must beat P=2 ({})",
        map.values[1][0],
        map.values[1][1]
    );
    // Deeper rings win: D=3 row dominates D=1.
    assert!(map.values[2][0] > map.values[0][0]);
}
