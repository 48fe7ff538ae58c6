#!/usr/bin/env bash
# CI gate: build, test, lint, format-check the whole workspace.
#
# Designed to work on an offline machine: all third-party crates are
# vendored as path dependencies (vendor/), so no registry access is
# needed. --offline makes cargo fail fast instead of hanging if
# something does try to reach a registry. clippy/rustfmt steps are
# skipped (with a warning) when the components are not installed.
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=(--offline --workspace)

echo "==> cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}"

echo "==> cargo test"
cargo test -q --release "${CARGO_FLAGS[@]}"

echo "==> sessionbench build + tests"
# sessionbench (the session-level benchmark) declares its own
# [workspace], so --workspace above never compiles it; build and test it
# here so a public-API change in the stack cannot break the benchmark
# unseen. .bench_build is the benchmark's gitignored target dir.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
    --manifest-path sessionbench/Cargo.toml

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    # The allow-by-default lints guard the zero-allocation hot paths
    # (DESIGN.md §12–13): a redundant clone or a collect-then-iterate
    # chain is usually a hidden heap allocation, and index-based loops /
    # manual copy loops hide the slice patterns the cached channel
    # kernels rely on.
    # needless_pass_by_value keeps the batched/pooled APIs honest: a
    # by-value Vec or Signal argument on a hot path forces the caller to
    # clone out of its pool.
    cargo clippy --release "${CARGO_FLAGS[@]}" --all-targets -- -D warnings \
        -W clippy::redundant_clone -W clippy::needless_collect \
        -W clippy::needless_range_loop -W clippy::manual_memcpy \
        -W clippy::needless_pass_by_value
    # Library paths of the protocol/session layers — and the node/RF/hw
    # substrate they call into (the Field-1 tap kernels live in hw) —
    # must not unwrap: every fallible outcome is a typed error or a
    # Degradation report (DESIGN.md §14). --lib skips #[cfg(test)]
    # modules; --no-deps keeps the lint off the vendored stubs.
    cargo clippy --release --offline --lib --no-deps \
        -p milback -p milback-proto -p milback-node -p milback-rf -p milback-hw \
        -- -D warnings -W clippy::unwrap_used
else
    echo "==> clippy not installed; skipping lint" >&2
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    # Vendored stubs keep upstream-ish layout and are exempt from house style.
    cargo fmt --check -p milback -p milback-dsp -p milback-rf -p milback-hw \
        -p milback-proto -p milback-node -p milback-ap -p milback-baseline \
        -p milback-bench -p milback-repro -p milback-telemetry
else
    echo "==> rustfmt not installed; skipping format check" >&2
fi

echo "==> bench smoke (kernel/burst/channel bitwise asserts)"
# --smoke shrinks every rep count; the run still asserts that each fast
# path (in-place FFT, workspace pipeline, waveform templates, and the
# cached channel-synthesis render of DESIGN.md §13) is bitwise identical
# to its allocating/uncached twin before reporting timings.
cargo run --release --offline -p milback-bench --bin bench_engine -- \
    --smoke --out target/bench_smoke.json >/dev/null

echo "==> kernel perf gate (burst + range FFT vs committed baseline)"
# Re-times just the localization burst and the range-FFT kernel at full
# reps (matching how the baseline was recorded; ~4 s) and fails if
# either regressed more than 10% against the committed BENCH_6.json.
# Comparisons are calibration-normalized (DESIGN.md §17.4) so shared-
# host load cannot trip the gate, with bounded re-measures on a miss.
cargo run --release --offline -p milback-bench --bin bench_engine -- \
    --legs kernels --check-against BENCH_6.json

# Determinism smokes: each leg runs twice and the two deterministic-view
# files must compare equal with cmp. Fields per leg: bench_engine leg
# name, view-file extension, MILBACK_THREADS of run 1 and of run 2
# ("-" = unset). The chaos, serve and net legs capture their telemetry
# in scopes of their own and assert that the serial view is not empty,
# so no MILBACK_TELEMETRY is needed for the views to mean something.
#
# chaos (DESIGN.md §14): supervised sessions under sampled fault plans,
#   serial and parallel inside one process; two back-to-back runs pin
#   cross-process determinism — same seeds, faults and recoveries.
# serve (DESIGN.md §15): a seeded Poisson schedule past the virtual
#   server's capacity through the work-stealing session pool; one run
#   capped at a single worker, one at four, pins cross-process AND
#   cross-thread-count determinism.
# net (DESIGN.md §16): the dense-network fabric across node densities —
#   two APs, slotted polling rounds with drift, handoffs and
#   parked-neighbor interference — at 1 and at 4 workers.
# adaptive (DESIGN.md §18): the adaptive-vs-fixed scenario sweep, every
#   §14 stressor fixed and closed-loop on paired seeds, at 1 and at 4
#   workers (in-process it already asserts 1-thread == N-thread).
DETERMINISM_LEGS=(
    "chaos json - -"
    "serve json 1 4"
    "net json 1 4"
    "adaptive txt 1 4"
)
for spec in "${DETERMINISM_LEGS[@]}"; do
    read -r leg ext threads_1 threads_2 <<<"$spec"
    echo "==> $leg smoke (cross-process determinism)"
    run=1
    for threads in "$threads_1" "$threads_2"; do
        thread_env=()
        [ "$threads" != - ] && thread_env=(MILBACK_THREADS="$threads")
        env "${thread_env[@]}" \
            cargo run --release --offline -p milback-bench --bin bench_engine -- \
            --smoke --legs "$leg" --view "target/${leg}_view_$run.$ext" >/dev/null
        run=$((run + 1))
    done
    cmp "target/${leg}_view_1.$ext" "target/${leg}_view_2.$ext"
done

echo "==> results/ regeneration (every figure/table capture byte-identical)"
# Reruns every figure and table binary and fails on any byte difference
# from its committed capture in results/: stdout against <name>.txt,
# and the --csv output against <name>.csv wherever one is committed.
# Each binary runs inside target/results_check/ with the same relative
# --csv path the capture was made with, so the "(csv written to …)"
# line in its stdout matches too. net_density and adaptive_chaos are
# skipped: bench_engine legs write them (no binary has those names).
check_dir=target/results_check
rm -rf "$check_dir"
mkdir -p "$check_dir/results"
for txt in results/*.txt; do
    name=$(basename "$txt" .txt)
    case "$name" in net_density | adaptive_chaos) continue ;; esac
    csv_args=()
    if [ -f "results/$name.csv" ]; then csv_args=(--csv "results/$name.csv"); fi
    (cd "$check_dir" && cargo run -q --release --offline -p milback-bench --bin "$name" -- \
        "${csv_args[@]}") >"$check_dir/results/$name.txt"
    cmp "results/$name.txt" "$check_dir/results/$name.txt"
    if [ -f "results/$name.csv" ]; then cmp "results/$name.csv" "$check_dir/results/$name.csv"; fi
done

echo "==> docs freshness (ARCHITECTURE/README section refs resolve in DESIGN.md)"
# Every "DESIGN.md §N" reference in the top-level maps must point at a
# real "## N." heading in DESIGN.md — a renumbered or deleted design
# section must not leave dangling pointers in the architecture docs.
for n in $(grep -ho 'DESIGN\.md §[0-9]\+' ARCHITECTURE.md README.md | grep -o '[0-9]\+$' | sort -un); do
    grep -q "^## $n\." DESIGN.md || {
        echo "ARCHITECTURE.md/README.md reference DESIGN.md §$n but DESIGN.md has no '## $n.' heading" >&2
        exit 1
    }
done

echo "==> cargo doc (rustdoc warnings are errors)"
# Same package list as fmt: vendored stubs are exempt from the docs gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p milback -p milback-dsp -p milback-rf -p milback-hw \
    -p milback-proto -p milback-node -p milback-ap -p milback-baseline \
    -p milback-bench -p milback-repro -p milback-telemetry

echo "==> CI green"
