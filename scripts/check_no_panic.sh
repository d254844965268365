#!/usr/bin/env bash
# No-panic gate for the code that takes outside bytes: the non-test part
# of each file below (above its first `#[cfg(test)]`, as code_lines.sh
# cuts it) may not contain `unwrap()`, `expect(`, `panic!`, `unreachable!`,
# `todo!`, `assert!`, `assert_eq!` or `assert_ne!` outside comments
# (`debug_assert*` is allowed: it is compiled out of release builds).
# Slice indexing (`v[i]`) can panic too, but no grep tells a checked
# index from an unchecked one, so it is out of this gate's scope.
# Every file under the TREES below is covered (ROADMAP 10(e)): the IR
# crate, the DSL (`crates/frontend/src/dsl`; the zoo kernels in
# `crates/frontend/src/kernels` are not covered yet), the evaluation
# harness, the baseline models, the simulator, the fleet cache daemon,
# the WSIR crate (kernels that may come from a cache directory or a
# daemon), the serving harness and the compiler core (its passes and
# lowering take modules that registered passes may have written, its
# interpreter runs any module, `remote.rs` parses bytes from a peer).
# They are at zero, apart from the commented ALLOW rows, and stay there.
# Run from anywhere; CI's docs job fails on any hit.
set -euo pipefail
cd "$(dirname "$0")/.."

TREES=(
    crates/ir/src
    crates/frontend/src/dsl
    crates/bench/src
    crates/kernels/src
    crates/sim/src
    crates/cached/src
    crates/wsir/src
    crates/serve/src
    crates/core/src
)
mapfile -t FILES < <(find "${TREES[@]}" -name '*.rs' | sort)

# Allowed exceptions: one `file:pattern` row each (an extended regex
# matched against the offending line), with the reason in a comment.
ALLOW=(
    # `Func::insert_op_before` anchors on an op its caller took from a
    # block's op list, so the anchor has a parent block and is in it.
    'crates/ir/src/func.rs:expect\("insertion anchor must be in a block"\)'
    'crates/ir/src/func.rs:expect\("anchor in parent block"\)'
    # `Func::result` is the sole-result accessor for ops whose kind has
    # one result (the verifier checks that count per kind). No reader of
    # outside bytes calls it: no parser or decoder builds IR from a file
    # or a peer, and every module a caller hands in is DSL-built
    # (verified by `finish`) or the caller's own code.
    'crates/ir/src/func.rs:assert_eq!\(r\.len\(\), 1,'
    # The `#[cfg(debug_assertions)]` cross-check of `PassManager::run`:
    # compiled out of release builds, and it fires only on a pass that
    # misreports `changed` — a bug in the pass, not in its input.
    'crates/ir/src/pass.rs:[0-9]+: +assert!\($'
    # `ArefRing::new` and `ParityChannel::new` document a `# Panics` on
    # depth 0, a caller's bug: the interpreter refuses a module whose
    # `create_aref` depth is not positive before it builds a ring, and
    # only tests build a `ParityChannel`.
    'crates/core/src/aref.rs:assert!\(depth > 0, "aref ring depth must be positive"\)'
    'crates/core/src/parity.rs:assert!\(depth > 0, "parity channel depth must be positive"\)'
    # `ParityChannel::release` documents a `# Panics` on a release with no
    # outstanding get: the protocol violation the aref type system
    # prevents statically, and no reader of outside bytes drives one.
    'crates/core/src/parity.rs:[0-9]+: +assert!\($'
    # `DeviceMemory::fill` keeps its signature for its callers (the
    # benchmark's numerics gate among them); an index naming no global
    # buffer is a bug in the caller's own launch spec, not outside bytes.
    'crates/core/src/interp.rs:expect\("global buffer exists"\)'
    # `std::thread::scope` joins every batch worker and re-raises a
    # worker's panic, so every slot is filled by the time it is read.
    'crates/core/src/session.rs:expect\("every batch slot is filled by a worker"\)'
)

fail=0
for f in "${FILES[@]}"; do
    [ -f "$f" ] || { echo "error: $f is listed but does not exist" >&2; exit 1; }
    hits=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                /^[[:space:]]*\/\// { next }
                /unwrap\(\)|expect\(|panic!|unreachable!|todo!|(^|[^_])assert(_eq|_ne)?!/ { print FILENAME ":" FNR ": " $0 }' "$f")
    while IFS= read -r hit; do
        [ -n "$hit" ] || continue
        allowed=0
        for row in ${ALLOW[@]+"${ALLOW[@]}"}; do
            if [ "${row%%:*}" = "$f" ] && echo "$hit" | grep -Eq "${row#*:}"; then
                allowed=1
            fi
        done
        if [ "$allowed" -eq 0 ]; then
            echo "error: may panic on outside bytes: $hit" >&2
            fail=1
        fi
    done <<< "$hits"
done
[ "$fail" -eq 0 ] || exit 1
echo "no unwrap/expect/panic!/unreachable!/todo!/assert! in the non-test code of ${#FILES[@]} files"
