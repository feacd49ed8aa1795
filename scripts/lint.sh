#!/usr/bin/env bash
# Run the lint plane locally, exactly as CI's `lint` + `sanitize-alloc`
# jobs do:
#
#   1. `fedcross-lint --deny-all --deny-waivers` — the static invariant
#      checker (rules D001-D006 plus the call-graph series A001/P001/
#      W001/W002, see docs/LINTS.md): unordered-map iteration on
#      trajectory paths, wall-clock/OS-entropy outside bench, unaudited
#      SeededRng::fork call sites, FMA / unordered parallel float
#      reductions in kernel files, uncommented `unsafe`, a second body
#      beside a `*_into` kernel (a same-named `fn X` that does not call
#      `X_into`), unclassified allocations reachable from hot-path roots,
#      unreasoned unwrap/expect/panic! in library crates, and stale
#      waivers/markers. Waiver counts are gated against the checked-in
#      lint-waivers.budget.
#   2. The `lint_plane` integration suite — the runtime half: every
#      registered algorithm's trajectory is bitwise identical at rayon
#      threads 1/2/4 and under permuted upload arrival order, and its state
#      round-trips through snapshot/restore bitwise.
#   3. The scoped no-alloc sanitizer (`--features sanitize-alloc`): a
#      counting global allocator + engine AllocGuards prove steady-state
#      rounds and evals stay free of >= 64 KiB allocations at runtime —
#      the backstop for what the conservative A001 call graph cannot see.
#
# Pass --static-only to skip the (slower) runtime suites, e.g. as a
# pre-commit hook. The full schedule sweep is also available standalone:
#   cargo run --release -p fedcross-bench --bin determinism_check
# and `fedcross-lint --reach NAME` explains why a function is (or is not)
# considered hot-path reachable.
set -euo pipefail

cd "$(dirname "$0")/.."

static_only=0
for arg in "$@"; do
    case "$arg" in
        --static-only) static_only=1 ;;
        *) echo "usage: scripts/lint.sh [--static-only]" >&2; exit 2 ;;
    esac
done

echo "== fedcross-lint --deny-all --deny-waivers =="
cargo run -q -p fedcross-lint --bin fedcross-lint -- --deny-all --deny-waivers

if [[ "$static_only" -eq 0 ]]; then
    echo
    echo "== lint_plane integration suite =="
    cargo test -q -p fedcross-tests --test lint_plane
    echo
    echo "== scoped no-alloc sanitizer (sanitize-alloc) =="
    cargo test -q -p fedcross-tests --features sanitize-alloc --test sanitize_alloc --test round_alloc
    cargo test -q -p fedcross-tensor --features sanitize-alloc --lib alloc_guard
fi
