//! Smoke tests for the figure harnesses: every regenerator runs at Quick
//! scale and renders non-empty tables.

use gpu_sim::Device;
use tawa::CompileSession;
use tawa_bench::{fig10, fig11, fig12, fig8, fig9, Scale};

#[test]
fn fig8_renders_both_panels() {
    let dev = Device::h100_sxm5();
    let figs = fig8::run_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
    assert_eq!(figs.len(), 2);
    for f in &figs {
        let md = f.to_markdown();
        assert!(md.contains("Tawa"), "{md}");
        assert!(md.contains("cuBLAS"), "{md}");
        let csv = f.to_csv();
        assert!(csv.lines().count() >= 4, "{csv}");
    }
}

#[test]
fn fig9_renders_both_panels() {
    let dev = Device::h100_sxm5();
    let figs = fig9::run_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
    assert_eq!(figs.len(), 2);
    assert!(figs[0].title.contains("batched"));
    assert!(figs[1].title.contains("grouped"));
}

#[test]
fn fig10_renders_four_panels() {
    let dev = Device::h100_sxm5();
    let figs = fig10::run_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
    assert_eq!(figs.len(), 4);
    for f in &figs {
        assert_eq!(f.series.len(), 5);
    }
}

#[test]
fn fig11_renders_heatmaps() {
    let dev = Device::h100_sxm5();
    let maps = fig11::run_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
    assert_eq!(maps.len(), 2);
    for m in &maps {
        let md = m.to_markdown();
        assert!(md.contains("D=3"), "{md}");
    }
}

#[test]
fn fig12_renders_ablations() {
    let dev = Device::h100_sxm5();
    let abls = fig12::run_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
    assert_eq!(abls.len(), 2);
    assert!(abls[0].to_markdown().contains("+Auto WS"));
    assert!(abls[1].to_markdown().contains("+Pipeline"));
}
