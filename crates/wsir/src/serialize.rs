//! Stable, versioned serialization of WSIR kernels.
//!
//! This is the on-disk exchange format behind the persistent kernel cache
//! in `tawa-core`: a compiled [`Kernel`] is written as a self-describing
//! text document and read back byte-for-byte equal (`deserialize ∘
//! serialize = id`, property-tested in `tests/proptest_serialize.rs` and
//! across all four kernel families in the workspace e2e suite).
//!
//! Everything a `wsir 1` document shares with the other Tawa text
//! documents — the lexical rules, the `wsir <version>` header and its
//! version policy, the [`DocError`] type — lives in [`crate::doc`]; this
//! module states only what is WSIR: the section and instruction grammar.
//!
//! ## Format
//!
//! ```text
//! wsir 1
//! kernel "gemm" persistent=false smem_bytes=65536 launch_overhead_ns=5500 useful_flops=0x42E86A0000000000
//! class multiplicity=100 params=[4,8]
//! barrier "full[0]" arrive_count=2 init_phases=0
//! warp_group role=producer regs_per_thread=24 {
//!   loop 8 {
//!     mbar.wait bar=1
//!     tma.load bytes=16384 bar=0
//!   }
//! }
//! ```
//!
//! * One `kernel` line, then `class`, `barrier` and `warp_group` sections
//!   in any order; a `warp_group` body is one instruction per line up to
//!   its closing `}`.
//! * Loop trip counts print as either a bare integer (`loop 8 {`) or a
//!   CTA-class parameter reference (`loop $p0 {`) — the [`Count`] display
//!   syntax; roles and MMA dtypes are their display names too.
//! * Loops nest at most [`MAX_LOOP_DEPTH`] deep.
//!
//! [`FORMAT_VERSION`] is bumped whenever the syntax or the meaning of any
//! field changes incompatibly — adding an instruction, renaming a field,
//! changing an encoding; persistent caches treat the resulting
//! [`DocError::VersionMismatch`] as a miss and recompile.
//!
//! ## `&'static str` labels
//!
//! [`Instr::CudaOp`] carries a `&'static str` diagnostic label. The
//! deserializer resolves parsed labels through a global interner that
//! leaks each *distinct* label string once. Because documents may come
//! from an untrusted shared cache directory, the interner is hard-capped
//! at [`MAX_INTERNED_LABELS`] distinct labels per process; beyond the
//! cap, labels collapse to a fixed placeholder (losing only the
//! diagnostic string, never kernel semantics) so a hostile document
//! cannot grow process memory without bound.

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

use crate::doc::{Doc, DocError, Line, Quoted, Writer};
use crate::instr::{BarId, Count, Instr, MmaDtype, Role};
use crate::kernel::{BarrierDecl, CtaClass, Kernel, WarpGroup};

/// Header keyword of a serialized kernel.
const FORMAT: &str = "wsir";

/// Current version of the serialization format. Readers accept exactly
/// this version; see the module docs for the bump policy.
pub const FORMAT_VERSION: u32 = 1;

/// Ceiling on distinct interned `cuda.op` labels per process. The
/// compiler's own vocabulary is a handful of strings; the cap only
/// exists so a corrupt or hostile document cannot leak unbounded memory.
pub const MAX_INTERNED_LABELS: usize = 4096;

/// Ceiling on `loop` nesting in a document. The reader recurses once per
/// nested loop, and so does everything that later walks the kernel, so
/// without a bound a few kilobytes of `loop 1 {` lines from an untrusted
/// cache directory or a `put-kernel` payload overflow the stack — an
/// abort, not an error. The compiler nests at most two deep (the
/// persistent tile loop of `lower.rs` and `templates.rs` around a
/// pipelined K or KV loop; `tests/e2e_documents.rs` measures it).
pub const MAX_LOOP_DEPTH: usize = 64;

/// Placeholder returned once the interner is full.
const LABEL_OVERFLOW: &str = "<label>";

/// Interns a parsed `cuda.op` label, leaking each distinct string once,
/// up to [`MAX_INTERNED_LABELS`].
fn intern_label(s: &str) -> &'static str {
    static LABELS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    // The set is consistent after any single insert, so a panic elsewhere
    // while the lock was held must not poison every later deserialize.
    let mut set = LABELS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = set.get(s) {
        return existing;
    }
    if set.len() >= MAX_INTERNED_LABELS {
        return LABEL_OVERFLOW;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

fn write_instrs(instrs: &[Instr], depth: usize, w: &mut Writer) {
    for i in instrs {
        w.indent(depth);
        match i {
            Instr::TmaLoad { bytes, bar } => {
                w.line("tma.load").field("bytes", bytes).field("bar", bar.0)
            }
            Instr::TmaStore { bytes } => w.line("tma.store").field("bytes", bytes),
            Instr::CpAsync { bytes } => w.line("cp.async").field("bytes", bytes),
            Instr::CpAsyncWait { pending } => w.line("cp.async.wait").field("pending", pending),
            Instr::MbarArrive { bar } => w.line("mbar.arrive").field("bar", bar.0),
            Instr::MbarWait { bar } => w.line("mbar.wait").field("bar", bar.0),
            Instr::WgmmaIssue { m, n, k, dtype } => w
                .line("wgmma.issue")
                .field("m", m)
                .field("n", n)
                .field("k", k)
                .field("dtype", dtype),
            Instr::WgmmaWait { pending } => w.line("wgmma.wait").field("pending", pending),
            Instr::CudaOp { flops, sfu, label } => w
                .line("cuda.op")
                .field("flops", flops)
                .field("sfu", sfu)
                .field("label", Quoted(label)),
            Instr::GlobalStore { bytes } => w.line("st.global").field("bytes", bytes),
            Instr::GlobalLoad { bytes } => w.line("ld.global").field("bytes", bytes),
            Instr::Syncthreads => w.line("bar.sync"),
            Instr::Loop { count, body } => {
                w.line("loop").word(count).word("{").end();
                write_instrs(body, depth + 1, w);
                w.indent(depth).line("}")
            }
            Instr::SetMaxNReg { regs } => w.line("setmaxnreg").field("regs", regs),
            Instr::Delay { cycles } => w.line("delay").field("cycles", cycles),
        }
        .end();
    }
}

/// Serializes a kernel to the versioned text format (see module docs).
pub fn serialize_kernel(k: &Kernel) -> String {
    let mut w = Writer::open(FORMAT, FORMAT_VERSION);
    w.line("kernel")
        .quoted(&k.name)
        .field("persistent", k.persistent)
        .field("smem_bytes", k.smem_bytes)
        .field("launch_overhead_ns", k.launch_overhead_ns)
        .bits("useful_flops", k.useful_flops)
        .end();
    for c in &k.classes {
        let params: Vec<String> = c.params.iter().map(u64::to_string).collect();
        w.line("class")
            .field("multiplicity", c.multiplicity)
            .field("params", format_args!("[{}]", params.join(",")))
            .end();
    }
    for b in &k.barriers {
        w.line("barrier")
            .quoted(&b.name)
            .field("arrive_count", b.arrive_count)
            .field("init_phases", b.init_phases)
            .end();
    }
    for wg in &k.warp_groups {
        w.line("warp_group")
            .field("role", wg.role)
            .field("regs_per_thread", wg.regs_per_thread)
            .word("{")
            .end();
        write_instrs(&wg.body, 1, &mut w);
        w.line("}").end();
    }
    w.finish()
}

fn parse_count(line: &Line<'_>, text: &str) -> Result<Count, DocError> {
    let count = match text.strip_prefix("$p") {
        Some(p) => p.parse().ok().map(Count::Param),
        None => text.parse().ok().map(Count::Const),
    };
    count.ok_or_else(|| line.malformed(format!("bad loop count '{text}'")))
}

/// Parses instruction lines until the closing `}` of the enclosing block;
/// `depth` is the number of loops already open around it.
fn parse_body(doc: &mut Doc<'_>, depth: usize) -> Result<Vec<Instr>, DocError> {
    let mut body = Vec::new();
    loop {
        let Some(f) = doc.next_line()? else {
            return Err(doc.truncated("unterminated block: expected '}'"));
        };
        let instr = match f.keyword() {
            "}" if f.tokens().len() == 1 => return Ok(body),
            "tma.load" => Instr::TmaLoad {
                bytes: f.int("bytes")?,
                bar: BarId(f.int("bar")?),
            },
            "tma.store" => Instr::TmaStore {
                bytes: f.int("bytes")?,
            },
            "cp.async" => Instr::CpAsync {
                bytes: f.int("bytes")?,
            },
            "cp.async.wait" => Instr::CpAsyncWait {
                pending: f.int("pending")?,
            },
            "mbar.arrive" => Instr::MbarArrive {
                bar: BarId(f.int("bar")?),
            },
            "mbar.wait" => Instr::MbarWait {
                bar: BarId(f.int("bar")?),
            },
            "wgmma.issue" => Instr::WgmmaIssue {
                m: f.int("m")?,
                n: f.int("n")?,
                k: f.int("k")?,
                dtype: match f.get("dtype")? {
                    "f16" => MmaDtype::F16,
                    "f8" => MmaDtype::F8,
                    other => return Err(f.malformed(format!("unknown dtype '{other}'"))),
                },
            },
            "wgmma.wait" => Instr::WgmmaWait {
                pending: f.int("pending")?,
            },
            "cuda.op" => Instr::CudaOp {
                flops: f.int("flops")?,
                sfu: f.int("sfu")?,
                label: intern_label(&f.string("label")?),
            },
            "st.global" => Instr::GlobalStore {
                bytes: f.int("bytes")?,
            },
            "ld.global" => Instr::GlobalLoad {
                bytes: f.int("bytes")?,
            },
            "bar.sync" => Instr::Syncthreads,
            "loop" => {
                let &[_, count, "{"] = f.tokens() else {
                    return Err(f.malformed("loop syntax is 'loop <count> {'"));
                };
                if depth == MAX_LOOP_DEPTH {
                    let msg = format!("loop nesting deeper than {MAX_LOOP_DEPTH}");
                    return Err(f.malformed(msg));
                }
                Instr::Loop {
                    count: parse_count(&f, count)?,
                    body: parse_body(doc, depth + 1)?,
                }
            }
            "setmaxnreg" => Instr::SetMaxNReg {
                regs: f.int("regs")?,
            },
            "delay" => Instr::Delay {
                cycles: f.int("cycles")?,
            },
            other => return Err(f.malformed(format!("unknown instruction '{other}'"))),
        };
        body.push(instr);
    }
}

/// Deserializes a kernel from the versioned text format.
///
/// # Errors
/// [`DocError::VersionMismatch`] when the header names a different
/// format version; [`DocError::Malformed`] for any structural problem
/// (truncation, corruption, unknown instructions, loops nested deeper
/// than [`MAX_LOOP_DEPTH`]). Callers that use this behind a cache must
/// treat both as a miss, not a failure.
pub fn deserialize_kernel(text: &str) -> Result<Kernel, DocError> {
    let mut doc = Doc::open(text, FORMAT, FORMAT_VERSION)?;
    let kf = doc.line("kernel")?;
    let mut kernel = Kernel {
        name: kf.name("name")?,
        classes: Vec::new(),
        smem_bytes: kf.int("smem_bytes")?,
        barriers: Vec::new(),
        warp_groups: Vec::new(),
        persistent: kf.bool("persistent")?,
        launch_overhead_ns: kf.int("launch_overhead_ns")?,
        useful_flops: kf.f64_bits("useful_flops")?,
        // Source spans are a diagnostic side channel and are not part of
        // the serialized form.
        bar_locs: Vec::new(),
    };

    // Body sections, dispatched on the leading keyword.
    while let Some(f) = doc.next_line()? {
        match f.keyword() {
            "class" => {
                let inner = f
                    .get("params")?
                    .strip_prefix('[')
                    .and_then(|t| t.strip_suffix(']'))
                    .ok_or_else(|| f.malformed("params is not a [..] list"))?;
                let params = match inner {
                    "" => Vec::new(),
                    _ => inner
                        .split(',')
                        .map(|p| {
                            p.parse()
                                .map_err(|_| f.malformed(format!("bad param '{p}'")))
                        })
                        .collect::<Result<_, _>>()?,
                };
                kernel.classes.push(CtaClass {
                    params,
                    multiplicity: f.int("multiplicity")?,
                });
            }
            "barrier" => kernel.barriers.push(BarrierDecl {
                name: f.name("name")?,
                arrive_count: f.int("arrive_count")?,
                init_phases: f.int("init_phases")?,
            }),
            "warp_group" => {
                if f.tokens().last() != Some(&"{") {
                    return Err(f.malformed("warp_group line must end with '{'"));
                }
                let role = match f.get("role")? {
                    "producer" => Role::Producer,
                    "consumer" => Role::Consumer,
                    "uniform" => Role::Uniform,
                    other => return Err(f.malformed(format!("unknown role '{other}'"))),
                };
                kernel.warp_groups.push(WarpGroup {
                    role,
                    regs_per_thread: f.int("regs_per_thread")?,
                    body: parse_body(&mut doc, 0)?,
                });
            }
            other => {
                let expected = "(expected class/barrier/warp_group)";
                return Err(f.malformed(format!("unknown section '{other}' {expected}")));
            }
        }
    }
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kernel() -> Kernel {
        let mut k = Kernel::new("gemm \"edge\\case\"\nname");
        k.persistent = true;
        k.smem_bytes = 228 * 1024;
        k.launch_overhead_ns = 5_500;
        k.useful_flops = 1.5e12;
        k.classes = vec![
            CtaClass {
                params: vec![4, 8],
                multiplicity: 100,
            },
            CtaClass {
                params: vec![],
                multiplicity: 28,
            },
        ];
        let full = k.add_barrier("full[0]", 2);
        let empty = k.add_barrier_init("empty[0]", 1, 1);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![
                Instr::SetMaxNReg { regs: 24 },
                Instr::loop_param(
                    0,
                    vec![
                        Instr::MbarWait { bar: empty },
                        Instr::TmaLoad {
                            bytes: 16384,
                            bar: full,
                        },
                    ],
                ),
                Instr::TmaStore { bytes: 8192 },
            ],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::loop_const(
                    8,
                    vec![
                        Instr::MbarWait { bar: full },
                        Instr::WgmmaIssue {
                            m: 64,
                            n: 128,
                            k: 16,
                            dtype: MmaDtype::F16,
                        },
                        Instr::WgmmaWait { pending: 1 },
                        Instr::CudaOp {
                            flops: 128,
                            sfu: 32,
                            label: "softmax",
                        },
                        Instr::MbarArrive { bar: empty },
                    ],
                ),
                Instr::CpAsync { bytes: 2048 },
                Instr::CpAsyncWait { pending: 0 },
                Instr::GlobalLoad { bytes: 64 },
                Instr::GlobalStore { bytes: 64 },
                Instr::Syncthreads,
                Instr::Delay { cycles: 12 },
            ],
        );
        k
    }

    #[test]
    fn round_trips_every_construct() {
        let k = sample_kernel();
        let text = serialize_kernel(&k);
        let back = deserialize_kernel(&text).unwrap();
        assert_eq!(k, back);
        // And the format itself is stable: re-serializing is a fixpoint.
        assert_eq!(text, serialize_kernel(&back));
    }

    #[test]
    fn round_trips_exotic_floats() {
        for flops in [0.0, -0.0, f64::NAN, f64::INFINITY, 1e-300, 718.4e12] {
            let mut k = Kernel::new("t");
            k.useful_flops = flops;
            let back = deserialize_kernel(&serialize_kernel(&k)).unwrap();
            assert_eq!(k.useful_flops.to_bits(), back.useful_flops.to_bits());
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let text = serialize_kernel(&Kernel::new("t"));
        let bumped = text.replacen(
            &format!("wsir {FORMAT_VERSION}"),
            &format!("wsir {}", FORMAT_VERSION + 1),
            1,
        );
        match deserialize_kernel(&bumped) {
            Err(DocError::VersionMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_malformed_not_panic() {
        let text = serialize_kernel(&sample_kernel());
        // Truncations at every prefix length must error, never panic.
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) && cut < text.len() {
                let _ = deserialize_kernel(&text[..cut]);
            }
        }
        assert!(deserialize_kernel("").is_err());
        assert!(deserialize_kernel("garbage").is_err());
        assert!(deserialize_kernel("wsir 1\nkernel oops\n").is_err());
        assert!(deserialize_kernel("wsir 1\nkernel \"t\" persistent=maybe smem_bytes=0 launch_overhead_ns=0 useful_flops=0x0\n").is_err());
    }

    #[test]
    fn labels_intern_to_static() {
        let a = intern_label("dynamic-label-1");
        let b = intern_label("dynamic-label-1");
        assert!(std::ptr::eq(a, b), "same label must intern to one string");
    }

    /// A kernel document whose one warp group nests `depth` loops.
    fn nested_loops(depth: usize) -> String {
        let mut text = serialize_kernel(&Kernel::new("nest"));
        text.push_str("warp_group role=producer regs_per_thread=24 {\n");
        text.push_str(&"loop 1 {\n".repeat(depth));
        text.push_str(&"}\n".repeat(depth + 1));
        text
    }

    #[test]
    fn loop_nesting_is_bounded_not_a_stack_overflow() {
        // On the 2 MiB stack the daemon's handler threads run on: 5 000
        // nested loops (45 KB) used to abort the process.
        let on_small_stack = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deepest = deserialize_kernel(&nested_loops(MAX_LOOP_DEPTH)).unwrap();
                let reread = deserialize_kernel(&serialize_kernel(&deepest)).unwrap();
                assert_eq!(reread, deepest, "the deepest legal nest round-trips");
                for depth in [MAX_LOOP_DEPTH + 1, 5_000, 100_000] {
                    match deserialize_kernel(&nested_loops(depth)) {
                        Err(DocError::Malformed { line, msg, .. }) => {
                            // The line of the first loop too many.
                            assert_eq!(line, 4 + MAX_LOOP_DEPTH, "depth {depth}");
                            assert_eq!(msg, format!("loop nesting deeper than {MAX_LOOP_DEPTH}"));
                        }
                        other => panic!("depth {depth}: expected Malformed, got {other:?}"),
                    }
                }
            })
            .unwrap();
        on_small_stack.join().unwrap();
    }
}
