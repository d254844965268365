//! Seeded, parameterized serving traces and their stable serialization.
//!
//! A [`Trace`] is the *artifact* form of a serving workload: an ordered
//! list of [`Request`]s — prefill GEMMs, decode attention at many
//! batch/seq shapes, MoE grouped GEMMs — as a serving fleet would see
//! them arrive. Traces are either written out by [`generate`] from a
//! seeded [`TraceParams`] (phase mix, shape pools, arrival order all
//! derive deterministically from the seed) or authored directly with
//! [`Trace::from_requests`]; either way the materialized request list is
//! what serializes, so replaying a trace file never depends on the
//! generator's evolution.
//!
//! ## Format
//!
//! A line-oriented text document on the shared toolkit
//! ([`tawa_wsir::doc`]: lexical rules, header and version policy, the
//! [`DocError`] type). After the `trace <version>` header come one
//! `trace` metadata line, then one `request` line per request in arrival
//! order:
//!
//! ```text
//! trace 1
//! trace "mixed-smoke" seed=7 mix_prefill=0x3FD999999999999A \
//!       mix_decode=0x3FD999999999999A mix_moe=0x3FD3333333333333
//! request prefill m=8192 n=8192 k=4096 batch=1 dtype=f16 \
//!         tile_m=128 tile_n=256 tile_k=64
//! request decode batch=4 heads=32 seq_len=1024 head_dim=128 \
//!         causal=true dtype=f16 block_m=128 block_n=128
//! request moe n=4096 k=4096 dtype=f16 tile_m=128 tile_n=128 tile_k=64 \
//!         groups=512,1024
//! ```
//!
//! (Shown wrapped; each is one physical line.)
//!
//! ## Version policy
//!
//! [`TRACE_FORMAT_VERSION`] is bumped whenever the syntax or the meaning
//! of any field changes incompatibly; readers reject other versions with
//! [`DocError::VersionMismatch`]. Round-tripping is bit-exact —
//! `deserialize ∘ serialize = id`, property-tested over generated traces
//! in `tests/proptest_trace.rs` (the mix weights are floats, so they
//! travel as bit patterns like every float in a Tawa text document).

use std::fmt;

use tawa_frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig, Tile};
use tawa_ir::types::DType;
use tawa_wsir::doc::{Doc, DocError, Line, Writer};

/// Header keyword of a serialized trace.
const FORMAT: &str = "trace";

/// Current version of the trace serialization format. Readers accept
/// exactly this version; see the module docs for the bump policy.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// The serving phase a request belongs to — the unit every fleet-level
/// aggregate ([`crate::report::FleetReport`]) is broken down by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Prompt-processing projection GEMMs (compute-bound, large M). The
    /// default, as it is the phase the generator falls back to.
    #[default]
    Prefill,
    /// Token-generation attention at many batch/seq shapes.
    Decode,
    /// Mixture-of-Experts grouped GEMM (one fused launch per router
    /// dispatch).
    Moe,
}

impl Phase {
    /// All phases, in the order reports list them.
    pub const ALL: [Phase; 3] = [Phase::Prefill, Phase::Decode, Phase::Moe];

    /// The stable lowercase name used in trace and report documents.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::Moe => "moe",
        }
    }

    /// Parses the textual form produced by [`Phase::name`].
    pub fn parse(s: &str) -> Option<Phase> {
        Some(match s {
            "prefill" => Phase::Prefill,
            "decode" => Phase::Decode,
            "moe" => Phase::Moe,
            _ => return None,
        })
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One serving request: a kernel-shaped unit of work arriving in the
/// stream. The variant determines the [`Phase`] and the zoo kernel the
/// replay resolves it against.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A prefill projection GEMM (optionally batched).
    Prefill(GemmConfig),
    /// A decode/prefill attention launch.
    Decode(AttentionConfig),
    /// An MoE grouped GEMM: one fused launch over all experts.
    Moe(GroupedGemmConfig),
}

impl Request {
    /// The serving phase this request belongs to.
    pub fn phase(&self) -> Phase {
        match self {
            Request::Prefill(_) => Phase::Prefill,
            Request::Decode(_) => Phase::Decode,
            Request::Moe(_) => Phase::Moe,
        }
    }

    /// Useful FLOPs of the request's problem (the weight the fleet
    /// throughput aggregation uses).
    pub fn flops(&self) -> f64 {
        match self {
            Request::Prefill(cfg) => cfg.flops(),
            Request::Decode(cfg) => cfg.flops(),
            Request::Moe(cfg) => cfg.flops(),
        }
    }

    /// The canonical one-line serialized form — also the shape key the
    /// replay memoizes autotune winners under: two requests with the same
    /// line are the same shape by construction.
    pub fn to_line(&self) -> String {
        match self {
            Request::Prefill(cfg) => format!(
                "request prefill m={} n={} k={} batch={} dtype={} tile_m={} tile_n={} tile_k={}",
                cfg.m, cfg.n, cfg.k, cfg.batch, cfg.dtype, cfg.tile.m, cfg.tile.n, cfg.tile.k
            ),
            Request::Decode(cfg) => format!(
                "request decode batch={} heads={} seq_len={} head_dim={} causal={} dtype={} \
                 block_m={} block_n={}",
                cfg.batch,
                cfg.heads,
                cfg.seq_len,
                cfg.head_dim,
                cfg.causal,
                cfg.dtype,
                cfg.block_m,
                cfg.block_n
            ),
            Request::Moe(cfg) => format!(
                "request moe n={} k={} dtype={} tile_m={} tile_n={} tile_k={} groups={}",
                cfg.n,
                cfg.k,
                cfg.dtype,
                cfg.tile.m,
                cfg.tile.n,
                cfg.tile.k,
                cfg.group_ms
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }
}

fn parse_dtype(f: &Line<'_>) -> Result<DType, DocError> {
    let text = f.get("dtype")?;
    DType::parse(text).ok_or_else(|| f.malformed(format!("unknown dtype '{text}'")))
}

fn parse_tile(f: &Line<'_>) -> Result<Tile, DocError> {
    Ok(Tile {
        m: f.int("tile_m")?,
        n: f.int("tile_n")?,
        k: f.int("tile_k")?,
    })
}

/// Parses one `request …` line (as produced by [`Request::to_line`]).
fn parse_request(f: &Line<'_>) -> Result<Request, DocError> {
    let kind = f.tokens().get(1).copied();
    match kind.ok_or_else(|| f.malformed("request line missing phase"))? {
        "prefill" => Ok(Request::Prefill(GemmConfig {
            m: f.int("m")?,
            n: f.int("n")?,
            k: f.int("k")?,
            batch: f.int("batch")?,
            dtype: parse_dtype(f)?,
            tile: parse_tile(f)?,
        })),
        "decode" => Ok(Request::Decode(AttentionConfig {
            batch: f.int("batch")?,
            heads: f.int("heads")?,
            seq_len: f.int("seq_len")?,
            head_dim: f.int("head_dim")?,
            causal: f.bool("causal")?,
            dtype: parse_dtype(f)?,
            block_m: f.int("block_m")?,
            block_n: f.int("block_n")?,
        })),
        "moe" => {
            let groups_text = f.get("groups")?;
            if groups_text.is_empty() {
                return Err(f.malformed("moe request with no groups"));
            }
            let mut group_ms = Vec::new();
            for part in groups_text.split(',') {
                let m = part.parse::<usize>().map_err(|_| {
                    f.malformed(format!("bad group M '{part}' in groups={groups_text}"))
                })?;
                group_ms.push(m);
            }
            Ok(Request::Moe(GroupedGemmConfig {
                group_ms,
                n: f.int("n")?,
                k: f.int("k")?,
                dtype: parse_dtype(f)?,
                tile: parse_tile(f)?,
            }))
        }
        other => Err(f.malformed(format!("unknown request phase '{other}'"))),
    }
}

/// A serving trace: the named, seeded, ordered request stream a replay
/// drives against one session. Traces are artifacts — see the module docs
/// for the serialization format.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable trace name (quoted in the document; any string).
    pub name: String,
    /// Seed the stream was generated from (provenance; authored traces
    /// carry whatever the author sets).
    pub seed: u64,
    /// Phase-mix weights the stream was generated with, in
    /// `[prefill, decode, moe]` order (provenance; floats round-trip as
    /// bit patterns).
    pub mix: [f64; 3],
    /// The requests, in arrival order.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Wraps an explicitly authored request list as a trace (the examples
    /// do this: a workload study is a small trace definition + replay).
    pub fn from_requests(name: impl Into<String>, seed: u64, requests: Vec<Request>) -> Trace {
        Trace {
            name: name.into(),
            seed,
            mix: [0.0; 3],
            requests,
        }
    }

    /// Number of requests in `phase`.
    pub fn phase_count(&self, phase: Phase) -> usize {
        self.requests.iter().filter(|r| r.phase() == phase).count()
    }
}

/// Serializes a trace to the versioned text format (see module docs).
pub fn serialize_trace(t: &Trace) -> String {
    let mut w = Writer::open(FORMAT, TRACE_FORMAT_VERSION);
    let [prefill, decode, moe] = t.mix;
    w.line("trace")
        .quoted(&t.name)
        .field("seed", t.seed)
        .bits("mix_prefill", prefill)
        .bits("mix_decode", decode)
        .bits("mix_moe", moe)
        .end();
    for r in &t.requests {
        w.line(&r.to_line()).end();
    }
    w.finish()
}

/// Deserializes a trace from the versioned text format.
///
/// # Errors
/// [`DocError::VersionMismatch`] when the header names a different
/// format version; [`DocError::Malformed`] for any structural problem
/// (truncation, corruption, trailing junk).
pub fn deserialize_trace(text: &str) -> Result<Trace, DocError> {
    let mut doc = Doc::open(text, FORMAT, TRACE_FORMAT_VERSION)?;
    let meta = doc.line("trace")?;
    let mut trace = Trace {
        name: meta.name("trace name")?,
        seed: meta.int("seed")?,
        mix: [
            meta.f64_bits("mix_prefill")?,
            meta.f64_bits("mix_decode")?,
            meta.f64_bits("mix_moe")?,
        ],
        requests: Vec::new(),
    };
    while let Some(line) = doc.next_line()? {
        if line.keyword() != "request" {
            return Err(line.malformed("expected 'request' line"));
        }
        trace.requests.push(parse_request(&line)?);
    }
    Ok(trace)
}

/// Parameters of the seeded trace generator: phase-mix weights plus the
/// shape pools each phase draws from. Everything about the generated
/// stream — phases, shapes, arrival order — is a pure function of these
/// fields, so one `(params, seed)` pair names one trace forever.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParams {
    /// Trace name stamped into the artifact.
    pub name: String,
    /// Generator seed.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Phase-mix weights in `[prefill, decode, moe]` order. Weights are
    /// relative (they need not sum to 1); non-positive weights disable
    /// the phase. All-non-positive falls back to pure prefill.
    pub mix: [f64; 3],
    /// Prefill GEMM `[m, n, k]` shape pool.
    pub prefill_shapes: Vec<[usize; 3]>,
    /// Decode attention batch-size pool.
    pub decode_batches: Vec<usize>,
    /// Decode attention sequence-length pool.
    pub decode_seq_lens: Vec<usize>,
    /// Decode attention head-dimension pool.
    pub decode_head_dims: Vec<usize>,
    /// MoE expert-count pool (each expert `g` contributes `M_g = 512·g`
    /// tokens, the paper's grouped sweep).
    pub moe_expert_counts: Vec<usize>,
    /// Element-type pool shared by every phase.
    pub dtypes: Vec<DType>,
}

impl TraceParams {
    /// A small mixed workload sized for smoke tests and CI: a handful of
    /// distinct shapes per phase, so cold replays stay cheap while every
    /// cache tier still gets exercised.
    pub fn quick(name: impl Into<String>, seed: u64, requests: usize) -> TraceParams {
        TraceParams {
            name: name.into(),
            seed,
            requests,
            mix: [0.4, 0.4, 0.2],
            prefill_shapes: vec![[4096, 4096, 4096], [2048, 2048, 2048]],
            decode_batches: vec![1, 4],
            decode_seq_lens: vec![1024, 2048],
            decode_head_dims: vec![128],
            moe_expert_counts: vec![2, 3],
            dtypes: vec![DType::F16],
        }
    }

    /// The Llama-70B-flavored production mixture the examples and the
    /// `tawa-serve gen` default use: projection-GEMM prefill shapes,
    /// paper-setting attention at several sequence lengths, and the
    /// paper's grouped-GEMM MoE sweep, in FP16 and FP8.
    pub fn llama_mix(name: impl Into<String>, seed: u64, requests: usize) -> TraceParams {
        TraceParams {
            name: name.into(),
            seed,
            requests,
            mix: [0.45, 0.35, 0.2],
            prefill_shapes: vec![
                [8192, 10240, 8192], // QKV projection
                [8192, 8192, 8192],  // output projection
                [8192, 28672, 8192], // MLP up
                [8192, 8192, 28672], // MLP down
            ],
            decode_batches: vec![1, 4],
            decode_seq_lens: vec![1024, 4096, 16384],
            decode_head_dims: vec![128],
            moe_expert_counts: vec![2, 4, 6],
            dtypes: vec![DType::F16, DType::F8E4M3],
        }
    }
}

/// The splitmix64 step: the deterministic RNG behind trace generation.
/// Chosen for the same reason the session's cache sharding uses its
/// finalizer — tiny, stateless, and identical on every platform.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Picks an element of `pool` from the next RNG draw. Panics on an empty
/// pool — [`generate`] validates pools up front.
fn pick<'a, T>(state: &mut u64, pool: &'a [T]) -> &'a T {
    &pool[(splitmix64(state) % pool.len() as u64) as usize]
}

/// Draws a phase from the mix weights using one RNG step. Weights are
/// compared through their ratios only, so any positive scale generates
/// the same stream.
fn pick_phase(state: &mut u64, mix: &[f64; 3]) -> Phase {
    let clamped: Vec<f64> = mix.iter().map(|&w| w.max(0.0)).collect();
    let total: f64 = clamped.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        return Phase::Prefill;
    }
    // 53-bit uniform draw in [0, 1): exact in f64, platform-independent.
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    for (i, w) in clamped.iter().enumerate() {
        acc += w / total;
        if u < acc {
            return Phase::ALL[i];
        }
    }
    Phase::Moe
}

/// Generates the trace named by `params`: a pure function of the params
/// (two calls with equal params yield equal traces, property-tested in
/// `tests/proptest_trace.rs`).
///
/// Shape pools that a phase needs are only consulted when the mix gives
/// that phase positive weight; a weighted phase with an empty pool is
/// redirected to prefill rather than panicking.
pub fn generate(params: &TraceParams) -> Trace {
    let mut state = params.seed;
    let mut requests = Vec::with_capacity(params.requests);
    let prefill_ok = !params.prefill_shapes.is_empty() && !params.dtypes.is_empty();
    for _ in 0..params.requests {
        let mut phase = pick_phase(&mut state, &params.mix);
        // Redirect phases whose pools cannot produce a request.
        let pool_ok = match phase {
            Phase::Prefill => prefill_ok,
            Phase::Decode => {
                !params.decode_batches.is_empty()
                    && !params.decode_seq_lens.is_empty()
                    && !params.decode_head_dims.is_empty()
                    && !params.dtypes.is_empty()
            }
            Phase::Moe => !params.moe_expert_counts.is_empty() && !params.dtypes.is_empty(),
        };
        if !pool_ok {
            if !prefill_ok {
                break; // Nothing can be generated at all.
            }
            phase = Phase::Prefill;
        }
        requests.push(match phase {
            Phase::Prefill => {
                let &[m, n, k] = pick(&mut state, &params.prefill_shapes);
                let dtype = *pick(&mut state, &params.dtypes);
                Request::Prefill(GemmConfig {
                    tile: Tile::LARGE,
                    ..GemmConfig::new(m, n, k).with_dtype(dtype)
                })
            }
            Phase::Decode => {
                let batch = *pick(&mut state, &params.decode_batches);
                let seq_len = *pick(&mut state, &params.decode_seq_lens);
                let head_dim = *pick(&mut state, &params.decode_head_dims);
                let dtype = *pick(&mut state, &params.dtypes);
                Request::Decode(AttentionConfig {
                    batch,
                    head_dim,
                    ..AttentionConfig::paper(seq_len, true, dtype)
                })
            }
            Phase::Moe => {
                let experts = *pick(&mut state, &params.moe_expert_counts);
                let dtype = *pick(&mut state, &params.dtypes);
                Request::Moe(GroupedGemmConfig {
                    dtype,
                    tile: Tile::LARGE,
                    ..GroupedGemmConfig::paper_sweep(experts)
                })
            }
        });
    }
    Trace {
        name: params.name.clone(),
        seed: params.seed,
        mix: params.mix,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let params = TraceParams::quick("det", 42, 32);
        let a = generate(&params);
        let b = generate(&params);
        assert_eq!(a, b);
        assert_eq!(a.requests.len(), 32);
        // The default mix actually mixes: every phase appears.
        for phase in Phase::ALL {
            assert!(a.phase_count(phase) > 0, "no {phase} requests generated");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TraceParams::quick("a", 1, 32));
        let b = generate(&TraceParams::quick("a", 2, 32));
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn round_trip_is_exact() {
        let trace = generate(&TraceParams::llama_mix("rt \"quoted\"\nname", 7, 24));
        let text = serialize_trace(&trace);
        let back = deserialize_trace(&text).unwrap();
        assert_eq!(trace, back);
        assert_eq!(
            serialize_trace(&back),
            text,
            "serialized form is a fixpoint"
        );
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut text = serialize_trace(&generate(&TraceParams::quick("v", 1, 4)));
        text = text.replacen("trace 1\n", "trace 2\n", 1);
        assert!(matches!(
            deserialize_trace(&text),
            Err(DocError::VersionMismatch {
                found: 2,
                expected: 1,
                ..
            })
        ));
    }

    #[test]
    fn truncation_and_junk_are_malformed() {
        let text = serialize_trace(&generate(&TraceParams::quick("t", 1, 4)));
        // Cut mid-request-line.
        let cut = &text[..text.len() - 10];
        assert!(matches!(
            deserialize_trace(cut),
            Err(DocError::Malformed { .. })
        ));
        // Foreign line kind.
        let junk = format!("{text}banquet phase=lunch\n");
        assert!(matches!(
            deserialize_trace(&junk),
            Err(DocError::Malformed { .. })
        ));
        assert!(matches!(
            deserialize_trace(""),
            Err(DocError::Malformed { line: 0, .. })
        ));
    }

    #[test]
    fn an_authored_moe_request_without_groups_reads_back_as_that_error() {
        let request = Request::Moe(GroupedGemmConfig {
            group_ms: Vec::new(),
            ..GroupedGemmConfig::paper_sweep(2)
        });
        let text = serialize_trace(&Trace::from_requests("empty-moe", 1, vec![request]));
        assert!(text.ends_with(" groups=\n"), "{text:?}");
        assert_eq!(
            deserialize_trace(&text),
            Err(DocError::Malformed {
                format: "trace",
                line: 3,
                msg: "moe request with no groups".to_string(),
            })
        );
    }

    #[test]
    fn zero_weight_phases_never_appear() {
        let params = TraceParams {
            mix: [1.0, 0.0, 0.0],
            ..TraceParams::quick("prefill-only", 9, 40)
        };
        let trace = generate(&params);
        assert_eq!(trace.phase_count(Phase::Prefill), 40);
    }

    #[test]
    fn empty_pools_redirect_to_prefill() {
        let params = TraceParams {
            moe_expert_counts: vec![],
            mix: [0.0, 0.0, 1.0],
            ..TraceParams::quick("redirect", 3, 8)
        };
        let trace = generate(&params);
        assert_eq!(trace.phase_count(Phase::Prefill), 8);
    }

    #[test]
    fn request_line_is_the_shape_key() {
        let trace = generate(&TraceParams::quick("key", 11, 64));
        // Serializing the same config twice yields the same line; distinct
        // configs yield distinct lines (the memoization contract).
        for r in &trace.requests {
            assert_eq!(r.to_line(), r.clone().to_line());
        }
        let a = Request::Prefill(GemmConfig::new(1024, 1024, 512));
        let b = Request::Prefill(GemmConfig::new(1024, 1024, 1024));
        assert_ne!(a.to_line(), b.to_line());
    }
}
