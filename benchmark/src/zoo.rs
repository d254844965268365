//! The benchmark's input programs: the short and long kernel zoos, the
//! Fig. 11 sweep set, and the seeded generator that orders them.
//!
//! A kernel shape is a [`tawa_serve::Request`] — the serving crate's own
//! shape type already covers the four zoo families and has a canonical
//! one-line form, which the golden file and every report use as the id.

use tawa_core::autotune::TuneSpace;
use tawa_core::CompileOptions;
use tawa_frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig, Tile};
use tawa_frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa_frontend::Program;
use tawa_ir::types::DType;
use tawa_serve::Request;

/// Builds the DSL program of a shape, exactly as `tawa_serve`'s replay
/// does for a request (its `program_for` is private).
pub fn build_program(shape: &Request) -> Program {
    match shape {
        Request::Prefill(cfg) if cfg.batch > 1 => batched_gemm(cfg),
        Request::Prefill(cfg) => gemm(cfg),
        Request::Decode(cfg) => attention(cfg),
        Request::Moe(cfg) => grouped_gemm(cfg),
    }
}

/// One kernel of a zoo: a shape and the options it is compiled under.
#[derive(Debug, Clone)]
pub struct Case {
    /// The kernel shape.
    pub shape: Request,
    /// Compile options.
    pub opts: CompileOptions,
}

impl Case {
    /// Stable id: the shape's canonical line plus the scheduling knobs.
    pub fn id(&self) -> String {
        format!("{} | {}", shape_line(&self.shape), knobs(&self.opts))
    }
}

/// A shape's canonical one-line form, without the trace format's
/// `request ` tag.
pub fn shape_line(shape: &Request) -> String {
    let line = shape.to_line();
    line.strip_prefix("request ").unwrap_or(&line).to_string()
}

/// The scheduling knobs of a kernel, as ids and the golden file spell
/// them.
pub fn knobs(opts: &CompileOptions) -> String {
    format!(
        "ws={} d={} p={} coop={} pers={}",
        u8::from(opts.warp_specialize),
        opts.aref_depth,
        opts.mma_depth,
        opts.cooperative,
        u8::from(opts.persistent),
    )
}

/// The serving defaults every zoo kernel is layered over: cooperative
/// consumer pairs (attention does not fit one consumer group).
pub fn base_options() -> CompileOptions {
    CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    }
}

fn fig8_gemm(k: usize, dtype: DType) -> Request {
    Request::Prefill(GemmConfig {
        tile: Tile::LARGE,
        ..GemmConfig::new(8192, 8192, k).with_dtype(dtype)
    })
}

fn tuned_gemm_options(persistent: bool) -> CompileOptions {
    CompileOptions {
        aref_depth: 3,
        mma_depth: 2,
        persistent,
        ..base_options()
    }
}

/// Short kernels: simulation is a small share of compile + simulate, so
/// compiler work shows here and engine work does not.
pub fn short_zoo() -> Vec<Case> {
    let mut cases = Vec::new();
    for dtype in [DType::F16, DType::F8E4M3] {
        for k in [256, 512, 1024] {
            for persistent in [false, true] {
                cases.push(Case {
                    shape: fig8_gemm(k, dtype),
                    opts: tuned_gemm_options(persistent),
                });
            }
        }
    }
    cases.push(Case {
        shape: Request::Prefill(GemmConfig {
            tile: Tile::LARGE,
            ..GemmConfig::new(1024, 1024, 1024).with_batch(8)
        }),
        opts: base_options(),
    });
    for seq_len in [1024, 2048] {
        cases.push(Case {
            shape: Request::Decode(AttentionConfig::paper(seq_len, false, DType::F16)),
            opts: base_options(),
        });
    }
    cases
}

/// Long kernels: the engine dominates (many K-loop iterations, 64/128
/// CTA classes for causal attention, six expert groups).
pub fn long_zoo() -> Vec<Case> {
    let mut cases = Vec::new();
    for dtype in [DType::F16, DType::F8E4M3] {
        for k in [8192, 16384] {
            cases.push(Case {
                shape: fig8_gemm(k, dtype),
                opts: tuned_gemm_options(true),
            });
        }
    }
    for seq_len in [8192, 16384] {
        cases.push(Case {
            shape: Request::Decode(AttentionConfig::paper(seq_len, true, DType::F16)),
            opts: base_options(),
        });
    }
    cases.push(Case {
        shape: Request::Moe(GroupedGemmConfig {
            tile: Tile::LARGE,
            ..GroupedGemmConfig::paper_sweep(6)
        }),
        opts: tuned_gemm_options(true),
    });
    cases
}

/// The causal attention kernel with the most CTA classes in the zoos
/// (L = 16384: 128 classes) — the fixed probe for the parallel-classes
/// speed-up.
pub fn many_class_case() -> Case {
    Case {
        shape: Request::Decode(AttentionConfig::paper(16384, true, DType::F16)),
        opts: base_options(),
    }
}

/// One autotune sweep: a shape, the base options and the tune space.
#[derive(Debug, Clone)]
pub struct SweepCase {
    /// The kernel shape.
    pub shape: Request,
    /// Options the tuned knobs are layered over.
    pub base: CompileOptions,
    /// The space swept.
    pub space: TuneSpace,
}

impl SweepCase {
    /// Stable id: the shape line plus which panel of the space is swept.
    pub fn id(&self) -> String {
        format!(
            "sweep {} | pers={:?}",
            shape_line(&self.shape),
            self.space.persistent
        )
    }
}

/// The Fig. 11 sweeps of paper §V-E: GEMM 8192×8192×K for K ∈ {4096,
/// 16384}, persistent and non-persistent panel, plus the attention D×P
/// space.
pub fn fig11_sweeps() -> Vec<SweepCase> {
    let mut sweeps = Vec::new();
    for k in [4096, 16384] {
        for persistent in [false, true] {
            sweeps.push(SweepCase {
                shape: fig8_gemm(k, DType::F16),
                base: base_options(),
                space: TuneSpace::fig11(persistent),
            });
        }
    }
    sweeps.push(SweepCase {
        shape: Request::Decode(AttentionConfig::paper(4096, true, DType::F16)),
        base: base_options(),
        space: TuneSpace::fig11(false),
    });
    sweeps
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_ids_are_distinct_and_sizes_are_as_documented() {
        let mut ids: Vec<String> = short_zoo()
            .iter()
            .chain(long_zoo().iter())
            .map(Case::id)
            .chain(fig11_sweeps().iter().map(SweepCase::id))
            .collect();
        assert_eq!(short_zoo().len(), 15);
        assert_eq!(long_zoo().len(), 7);
        assert_eq!(fig11_sweeps().len(), 5);
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        let order = |seed: u64| {
            let mut v: Vec<usize> = (0..15).collect();
            Rng(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
    }
}
