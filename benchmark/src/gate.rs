//! The correctness gate: outputs are checked against references that do
//! not come from the compiler under test.
//!
//! - **Interpreter equivalence** (set-up, untimed): for a small shape of
//!   each kernel family, the functional interpreter runs the program
//!   before and after the warp-specialization pipeline on real data and
//!   the outputs must be bit-equal.
//! - **Golden simulation reports** (every op): each distinct kernel's
//!   winning knobs, `cycles`, and the `total_time_us` and `tflops` bit
//!   patterns must match the
//!   committed, hand-reviewed `golden/sim_reports.txt`. Regenerate it only
//!   with `tawa-bench bless`, alongside a `COST_MODEL_VERSION` bump.

use std::collections::BTreeMap;

use gpu_sim::SimReport;
use tawa_core::interp::{run_grid, DeviceMemory};
use tawa_core::session::tawa_pass_registry;
use tawa_core::{CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig, Tile};
use tawa_ir::types::DType;
use tawa_serve::Request;

use crate::zoo::{base_options, build_program, knobs};

const GOLDEN_TEXT: &str = include_str!("../golden/sim_reports.txt");

/// Path of the golden file, relative to the repository root.
pub const GOLDEN_PATH: &str = "benchmark/golden/sim_reports.txt";

/// The golden value of one kernel: knobs, cycles, and the exact simulated
/// time and TFLOP/s.
pub fn golden_value(opts: &CompileOptions, report: &SimReport) -> String {
    format!(
        "{} cycles={} time_us=0x{:016x} tflops=0x{:016x}",
        knobs(opts),
        report.cycles,
        report.total_time_us.to_bits(),
        report.tflops.to_bits()
    )
}

/// The committed expectations, keyed by kernel id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden(pub BTreeMap<String, String>);

impl Golden {
    /// The golden file compiled into this binary.
    pub fn embedded() -> Golden {
        Golden::parse(GOLDEN_TEXT)
    }

    /// Parses `key => value  # comment` lines; blank and `#` lines are
    /// skipped.
    pub fn parse(text: &str) -> Golden {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.split("  #").next().unwrap_or("").trim();
            if line.starts_with('#') {
                continue;
            }
            if let Some((key, value)) = line.split_once(" => ") {
                map.insert(key.trim().to_string(), value.trim().to_string());
            }
        }
        Golden(map)
    }

    /// Whether `key`'s kernel matches its committed expectation. An
    /// unknown key is a mismatch: every kernel the benchmark runs is
    /// listed.
    pub fn matches(&self, key: &str, opts: &CompileOptions, report: &SimReport) -> bool {
        self.0.get(key) == Some(&golden_value(opts, report))
    }

    /// Records a kernel (used by `bless`).
    pub fn insert(&mut self, key: String, opts: &CompileOptions, report: &SimReport) {
        self.0.insert(key, golden_value(opts, report));
    }

    /// The file contents, with the approximate TFLOP/s as a comment for
    /// the human reviewer.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Golden simulation reports: one line per distinct kernel the benchmark runs.\n\
             # key => winning knobs, simulated cycles, exact simulated time and\n\
             # TFLOP/s bit patterns.\n\
             # Regenerate ONLY with `tawa-bench bless`, together with a\n\
             # gpu_sim::COST_MODEL_VERSION bump, and review the diff by hand.\n",
        );
        for (key, value) in &self.0 {
            let tflops = value
                .rsplit_once("tflops=0x")
                .and_then(|(_, hex)| u64::from_str_radix(hex, 16).ok())
                .map(f64::from_bits)
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{key} => {value}  # ~{tflops:.1} TFLOP/s\n"));
        }
        out
    }
}

/// Small shapes, one per kernel family, that the interpreter executes in
/// milliseconds.
fn interp_shapes() -> Vec<(Request, CompileOptions)> {
    let ws = |d: usize, p: usize| CompileOptions {
        aref_depth: d,
        mma_depth: p,
        ..base_options()
    };
    let attention = |causal| {
        Request::Decode(AttentionConfig {
            batch: 1,
            heads: 1,
            seq_len: 256,
            ..AttentionConfig::paper(256, causal, DType::F16)
        })
    };
    vec![
        (Request::Prefill(GemmConfig::new(256, 256, 192)), ws(3, 2)),
        (
            Request::Prefill(GemmConfig::new(128, 128, 128).with_batch(2)),
            ws(2, 1),
        ),
        (attention(false), ws(2, 2)),
        (attention(true), ws(2, 2)),
        (
            Request::Moe(GroupedGemmConfig {
                group_ms: vec![128, 256],
                n: 128,
                k: 128,
                dtype: DType::F16,
                tile: Tile::SMALL,
            }),
            ws(2, 2),
        ),
    ]
}

/// Runs the interpreter-equivalence check.
///
/// # Errors
/// The first shape whose specialized program computes different bits (or
/// fails to run) — with its shape line.
pub fn interpreter_equivalence() -> Result<usize, String> {
    let registry = tawa_pass_registry();
    let shapes = interp_shapes();
    for (shape, opts) in &shapes {
        let what = shape.to_line();
        let program = build_program(shape);
        let mut specialized = program.module().clone();
        CompileSession::pipeline_spec(opts)
            .and_then(|spec| spec.build(&registry))
            .map_err(|d| format!("{what}: {d}"))?
            .run(&mut specialized)
            .map_err(|e| format!("{what}: {e}"))?;
        let run = |module: &tawa_ir::func::Module| -> Result<DeviceMemory, String> {
            let mut mem = DeviceMemory::from_spec(program.spec());
            let mut ids: Vec<usize> = mem.buffers.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                mem.fill(id, |i| ((i * (2 * id + 3) % 23) as f32 - 11.0) * 0.0625);
            }
            run_grid(&module.funcs[0], program.spec(), &mut mem)
                .map_err(|e| format!("{what}: interpreter: {}", e.msg))?;
            Ok(mem)
        };
        let reference = run(program.module())?;
        let got = run(&specialized)?;
        for (id, want) in &reference.buffers {
            let same = got.buffers.get(id).is_some_and(|g| {
                g.data.len() == want.data.len()
                    && g.data
                        .iter()
                        .zip(&want.data)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if !same {
                return Err(format!(
                    "{what}: buffer {id} differs after warp specialization"
                ));
            }
        }
    }
    Ok(shapes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_round_trips_and_rejects_any_drift() {
        let report = |cycles: u64, tflops: f64| {
            let dev = gpu_sim::Device::h100_sxm5();
            let case = &crate::zoo::short_zoo()[0];
            let mut r = CompileSession::in_memory(&dev)
                .compile_and_simulate_program(&build_program(&case.shape), &case.opts)
                .unwrap();
            r.cycles = cycles;
            r.tflops = tflops;
            r
        };
        let opts = base_options();
        let mut g = Golden::default();
        g.insert("a | x".into(), &opts, &report(100, 512.25));
        let back = Golden::parse(&g.render());
        assert_eq!(back, g);
        assert!(back.matches("a | x", &opts, &report(100, 512.25)));
        assert!(!back.matches("a | x", &opts, &report(101, 512.25)));
        assert!(!back.matches("a | x", &opts, &report(100, 512.250_000_000_1)));
        let other = CompileOptions {
            aref_depth: 3,
            ..opts.clone()
        };
        assert!(!back.matches("a | x", &other, &report(100, 512.25)));
        assert!(!back.matches("unknown", &opts, &report(100, 512.25)));
    }

    #[test]
    fn interpreter_gate_passes_on_every_family() {
        assert_eq!(interpreter_equivalence(), Ok(5));
    }
}
